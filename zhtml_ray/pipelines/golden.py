"""Driver-checkable oracles for the non-SQL-expressible pipelines.

The north-star invariant — byte-identical extracted text per url,
distributed run vs the pinned single-process extractor — was previously
enforced only inside pytest goldens. Here the pinned oracle output is
materialized to parquet by a SERIAL, Ray-free run of the same kernels
(one process, one file at a time, deterministic order), and
``oracle_sql()`` points DuckDB at it via ``read_parquet``. The driver
then compares the DISTRIBUTED Ray pipeline against the serial pinned
run — exactly the golden-file harness of SURVEY.md §5.3, but visible to
the hard correctness gate.

Layout: goldens are computed once per (fixture version, scale, query)
into a cache dir, then atomically copied to a FIXED per-query path that
the static SQL strings reference. Every gate run executes the query
callable (which refreshes the fixed path for its sf) before its SQL, so
the fixed path always holds the right scale's golden.
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

GOLDEN_ROOT = os.environ.get("ZHTML_RAY_GOLDEN_DIR", "/tmp/zhtml_ray_golden")
_CLEANED = False


def _current_dir() -> str:
    """Per-process fixed path (ADVICE r2): queries() and oracle_sql()
    always run in the same gate process, so scoping by pid means two
    concurrent gate runs at different scales can never interleave each
    other's per-query goldens between a query callable and its SQL
    read. Computed at USE time, not import time: a fork() after import
    would otherwise hand every child the parent's dir and re-create
    exactly the cross-scale interleaving this prevents (r3 review)."""
    return os.path.join(GOLDEN_ROOT, f"current_{os.getpid()}")


def _clean_stale_current() -> None:
    """Remove current_<pid> dirs of DEAD processes (r3 review finding):
    they otherwise accumulate in /tmp forever, and worse — a recycled
    pid would let pregenerate's refresh_current=False path keep a dead
    run's stale golden. Runs once per process, including for OUR pid's
    leftover dir from a previous incarnation."""
    global _CLEANED
    if _CLEANED:
        return
    _CLEANED = True
    import glob
    import shutil as sh

    def pid_alive(pid: int) -> bool:
        if pid == os.getpid():
            return True
        try:
            os.kill(pid, 0)
            return True
        except ProcessLookupError:
            return False
        except PermissionError:
            return True

    for d in glob.glob(os.path.join(GOLDEN_ROOT, "current_*")):
        try:
            pid = int(d.rsplit("_", 1)[1])
        except ValueError:
            continue
        if not pid_alive(pid):
            sh.rmtree(d, ignore_errors=True)
    # timeout-killed runs leak multi-MB '*.tmp.<pid>' files between
    # write_table and os.replace; superseded-digest cache dirs strand a
    # full golden set per source edit (r3 review) — sweep both
    for f in glob.glob(os.path.join(GOLDEN_ROOT, "*", "*.tmp.*")):
        try:
            pid = int(f.rsplit(".", 1)[1])
        except ValueError:
            continue
        if not pid_alive(pid):
            try:
                os.remove(f)
            except OSError:
                pass
    cur = f"_s{_source_digest()}"
    for d in glob.glob(os.path.join(GOLDEN_ROOT, "v*_s*")):
        if not os.path.isdir(d) or d.endswith(cur):
            continue
        # a LIVE process may still be mid-gate on the superseded
        # digest (r4: a source edit during a long background sf0.1
        # run swept the dir out from under it — FileNotFoundError on
        # its golden reads). Dirs are claimed via .inuse.<pid>
        # markers; sweep only when every claimant is dead.
        live = False
        for m in glob.glob(os.path.join(d, ".inuse.*")):
            try:
                mpid = int(m.rsplit(".", 1)[1])
            except ValueError:
                continue
            if pid_alive(mpid):
                live = True
            else:
                try:
                    os.remove(m)
                except OSError:
                    pass
        if not live:
            sh.rmtree(d, ignore_errors=True)


def golden_sql(name: str) -> str:
    """The oracle: DuckDB reads the pinned serial output verbatim."""
    return f"SELECT * FROM read_parquet('{_current_dir()}/{name}.parquet')"


def gate_project(tbl: pa.Table) -> pa.Table:
    """Shared projection for the `extract` gate row: nested columns
    (spans, errors) serialize to canonical JSON strings so the driver's
    sort+hash compare works on them. Used IDENTICALLY by the
    distributed query and the serial golden — any divergence is a real
    engine difference, not a formatting one."""
    spans_json = [
        json.dumps([[s["start"], s["end"], s["node_id"], s["kind"]]
                    for s in row], separators=(",", ":"))
        for row in tbl["spans"].to_pylist()]
    err_json = [json.dumps([[e["code"], e["line"], e["col"]] for e in row],
                           separators=(",", ":"))
                for row in tbl["errors"].to_pylist()]
    return pa.table({
        "url": tbl["url"],
        "extracted_text": tbl["extracted_text"],
        "spans_json": pa.array(spans_json, pa.string()),
        "quirks": tbl["quirks"],
        "doctype_name": tbl["doctype_name"],
        "errors_json": pa.array(err_json, pa.string()),
        "n_nodes": tbl["n_nodes"],
        "html_bytes": tbl["html_bytes"],
        "row_crc": tbl["row_crc"],
        "ok": tbl["ok"],
    })


def _pages_files(sf_dir: str) -> list[str]:
    from zhtml_ray.pipelines.extract import pages_dir_for
    from zhtml_ray.sources.files import expand
    return expand(pages_dir_for(sf_dir), (".parquet",))


# serial per-(kind, sf) results cached in-process: error_histogram
# reuses the extract pass instead of re-parsing the corpus
_serial_cache: dict = {}


def _serial_extract_tables(sf_dir: str) -> list[pa.Table]:
    key = ("extract", sf_dir)
    if key not in _serial_cache:
        from zhtml_ray.stages.parse_extract import ParseExtractBatch
        fn = ParseExtractBatch(include_spans=True)
        _serial_cache[key] = [fn(pq.read_table(f, columns=["url", "html"]))
                              for f in _pages_files(sf_dir)]
    return _serial_cache[key]


def _gen_extract(sf_dir: str) -> pa.Table:
    return pa.concat_tables(
        [gate_project(t) for t in _serial_extract_tables(sf_dir)])


def _gen_extract_error_histogram(sf_dir: str) -> pa.Table:
    from collections import Counter
    c: Counter = Counter()
    for t in _serial_extract_tables(sf_dir):
        for errs in t["errors"].to_pylist():
            c.update(e["code"] for e in errs)
    codes = sorted(c)
    return pa.table({"code": pa.array(codes, pa.string()),
                     "count()": pa.array([c[k] for k in codes], pa.int64())})


def node_table_project(tbl: pa.Table) -> pa.Table:
    """Gate projection for the flattened DOM table: the nested node
    list rides as canonical JSON (shared by query + golden)."""
    rows = tbl["nodes"].to_pylist()  # once: the dominant conversion
    nodes_json = [
        json.dumps([[n["parent"], n["kind"], n["tag"], n["ns"], n["depth"],
                     n["attr_keys"], n["attr_vals"], n["text"]]
                    for n in row], separators=(",", ":"), ensure_ascii=False)
        for row in rows]
    return pa.table({
        "url": tbl["url"],
        "n_nodes": pa.array([len(r) for r in rows], pa.int64()),
        "nodes_json": pa.array(nodes_json, pa.string()),
    })


def _gen_node_table(sf_dir: str) -> pa.Table:
    from zhtml_ray.stages.node_table import NodeTableBatch
    fn = NodeTableBatch()
    return pa.concat_tables(
        [node_table_project(fn(pq.read_table(f, columns=["url", "html"])))
         for f in _pages_files(sf_dir)])


def _gen_links(sf_dir: str) -> pa.Table:
    from zhtml_ray.stages.node_table import LinksBatch
    fn = LinksBatch()
    return pa.concat_tables(
        [fn(pq.read_table(f, columns=["url", "html"]))
         for f in _pages_files(sf_dir)])


def _gen_images(sf_dir: str) -> pa.Table:
    from zhtml_ray.stages.node_table import ImagesBatch
    fn = ImagesBatch()
    return pa.concat_tables(
        [fn(pq.read_table(f, columns=["url", "html"]))
         for f in _pages_files(sf_dir)])


def _gen_page_meta(sf_dir: str) -> pa.Table:
    from zhtml_ray.stages.node_table import PageMetaBatch
    fn = PageMetaBatch()
    return pa.concat_tables(
        [fn(pq.read_table(f, columns=["url", "html"]))
         for f in _pages_files(sf_dir)])


def _gen_table_cells(sf_dir: str) -> pa.Table:
    from zhtml_ray.stages.node_table import TableCellsBatch
    fn = TableCellsBatch()
    return pa.concat_tables(
        [fn(pq.read_table(f, columns=["url", "html"]))
         for f in _pages_files(sf_dir)])


def _gen_token_stats(sf_dir: str) -> pa.Table:
    from zhtml_ray.stages.node_table import TokenStatsBatch
    fn = TokenStatsBatch()
    return pa.concat_tables(
        [fn(pq.read_table(f, columns=["url", "html"]))
         for f in _pages_files(sf_dir)])


def _gen_fingerprint(sf_dir: str) -> pa.Table:
    from zhtml_ray.functions.textstats import Fingerprint
    fn = Fingerprint()
    t = fn(pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]))
    return t.select(["doc_id", "fingerprint", "content_hash"])


def _gen_simhash(sf_dir: str) -> pa.Table:
    from zhtml_ray.functions.dedup import SimHashBatch
    fn = SimHashBatch()
    t = fn(pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]))
    return t.select(["doc_id", "simhash", "simhash_b0"])


def _docs_table(sf_dir: str) -> pa.Table:
    return pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])


def _serial_shingle_sets(sf_dir: str, k: int = 3):
    key = ("shingles", sf_dir, k)
    if key not in _serial_cache:
        from zhtml_ray.functions.dedup import _shingles
        t = _docs_table(sf_dir)
        _serial_cache[key] = (
            t["doc_id"].to_pylist(),
            [set(_shingles(s or "", k).tolist())
             for s in t["text"].to_pylist()])
    return _serial_cache[key]


def _gen_ngram_jaccard(sf_dir: str) -> pa.Table:
    """INDEPENDENT oracle: brute-force all-pairs word-3-gram Jaccard ≥
    0.8 — no LSH blocking. Matching it certifies the engine's blocked
    path has perfect recall AND precision on this corpus."""
    ids, sets = _serial_shingle_sets(sf_dir)
    ka, kb, js = [], [], []
    for i in range(len(ids)):
        si = sets[i]
        for j in range(i + 1, len(ids)):
            sj = sets[j]
            if not si and not sj:
                jac = 1.0
            elif not si or not sj:
                jac = 0.0
            else:
                jac = len(si & sj) / len(si | sj)
            if jac >= 0.8:
                a, b = sorted((ids[i], ids[j]))
                ka.append(a)
                kb.append(b)
                js.append(jac)
    return pa.table({"key_a": pa.array(ka), "key_b": pa.array(kb),
                     "jaccard": pa.array(js, pa.float64())})


def _gen_incremental_neardup(sf_dir: str) -> pa.Table:
    """INDEPENDENT oracle for the at-rest LSH incremental probe:
    brute-force Jaccard of every (new, base) doc pair across the
    doc_id%4 split — no LSH anywhere. Matching it certifies both the
    index probe's recall AND the verify stage's precision (r4)."""
    ids, sets = _serial_shingle_sets(sf_dir)
    kn, kb, js = [], [], []
    for i in range(len(ids)):
        if ids[i] % 4 != 0:
            continue
        si = sets[i]
        for j in range(len(ids)):
            if ids[j] % 4 == 0:
                continue
            sj = sets[j]
            if not si and not sj:
                jac = 1.0
            elif not si or not sj:
                jac = 0.0
            else:
                jac = len(si & sj) / len(si | sj)
            if jac >= 0.8:
                kn.append(ids[i])
                kb.append(ids[j])
                js.append(jac)
    return pa.table({"key_new": pa.array(kn, pa.int64()),
                     "key_base": pa.array(kb, pa.int64()),
                     "jaccard": pa.array(js, pa.float64())})


FUZZY_OFF = 1_000_000_000  # dirty-twin ids: above every real doc_id


def fuzzy_dirty_text(s: str) -> str:
    """Shared dirty-twin derivation (X122): drop every 25th word.
    The serial oracle uses THIS Python form; the engine derives the
    same strings with the vectorized `_split_encode` path (pinned
    token-identical to ``str.split``), so equality certifies the
    Arrow rebuild too."""
    w = (s or "").split()
    return " ".join(x for i, x in enumerate(w) if i % 25 != 24)


def _gen_fuzzy_join(sf_dir: str, threshold: float = 0.8) -> pa.Table:
    """INDEPENDENT oracle for the record-linkage fuzzy join:
    brute-force ALL left × dirty word-3-gram Jaccards (no LSH
    blocking), keep per left doc the best match ≥ threshold (ties →
    min match id). Matching it certifies recall AND precision of the
    engine's blocked path on this corpus."""
    from zhtml_ray.functions.dedup import _shingles
    t = _docs_table(sf_dir)
    ids = t["doc_id"].to_pylist()
    texts = t["text"].to_pylist()
    lsets = [set(_shingles(s or "").tolist()) for s in texts]
    rids, rsets = [], []
    for i, s in zip(ids, texts):
        if i % 2 == 0:
            rids.append(i + FUZZY_OFF)
            rsets.append(set(_shingles(fuzzy_dirty_text(s)).tolist()))
    out_id, out_m, out_j = [], [], []
    for i, si in zip(ids, lsets):
        best = None
        for rj, sj in zip(rids, rsets):
            if not si and not sj:
                jac = 1.0
            elif not si or not sj:
                jac = 0.0
            else:
                jac = len(si & sj) / len(si | sj)
            if jac >= threshold and (
                    best is None or jac > best[1]
                    or (jac == best[1] and rj < best[0])):
                best = (rj, jac)
        if best is not None:
            out_id.append(i)
            out_m.append(best[0])
            out_j.append(best[1])
    return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                     "match_id": pa.array(out_m, pa.int64()),
                     "jaccard": pa.array(out_j, pa.float64())})


def _gen_minhash_dedup(sf_dir: str) -> pa.Table:
    """Serial oracle with an INDEPENDENT clustering algorithm: same
    MinHash/LSH bucketing kernels run in one process, candidate star
    pairs per bucket, exact-Jaccard verify, then plain UNION-FIND with
    min-key roots — vs the engine's distributed bounded-round min-label
    propagation. Equal output certifies the connected components, not
    just the hashing."""
    from zhtml_ray.functions.dedup import (append_band_buckets,
                                           explode_band_buckets)
    t = _docs_table(sf_dir)
    exploded = explode_band_buckets(append_band_buckets(t, {
        "col": "text", "num_perm": 128, "bands": 32, "shingle_k": 3,
        "seed": 42}), "doc_id")
    # bucket → star pairs with the min member (mirrors clique_limit=0)
    buckets: dict = {}
    for b, k in zip(exploded["bucket"].to_pylist(),
                    exploded["doc_id"].to_pylist()):
        buckets.setdefault(b, set()).add(k)
    cand = set()
    for ks in buckets.values():
        ks = sorted(ks)
        cand.update((ks[0], o) for o in ks[1:])
    ids, sets = _serial_shingle_sets(sf_dir)
    idx = {k: i for i, k in enumerate(ids)}

    def jac(a, b):
        sa, sb = sets[idx[a]], sets[idx[b]]
        if not sa and not sb:
            return 1.0
        if not sa or not sb:
            return 0.0
        return len(sa & sb) / len(sa | sb)

    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in sorted(cand):
        if jac(a, b) >= 0.8:
            ra, rb = find(a), find(b)
            if ra != rb:
                lo, hi = min(ra, rb), max(ra, rb)
                parent[hi] = lo
    cluster = [find(k) for k in ids]
    return pa.table({
        "doc_id": pa.array(ids),
        "cluster": pa.array(cluster),
        "is_dup": pa.array([c != k for c, k in zip(cluster, ids)],
                           pa.bool_()),
    })


def _gen_link_components(sf_dir: str) -> pa.Table:
    """Serial oracle for link-graph weakly-connected components with an
    INDEPENDENT clustering algorithm: the same link-extraction +
    href-resolution kernels run in one process, then plain UNION-FIND
    with min-key roots — vs the engine's distributed bounded-round
    min-label propagation. Equal output certifies the distributed
    distinct + component machinery, not just the resolution."""
    from zhtml_ray.functions.graph import resolve_edges_batch
    from zhtml_ray.stages.node_table import LinksBatch
    fn = LinksBatch()
    edges = set()
    for f in _pages_files(sf_dir):
        links = fn(pq.read_table(f, columns=["url", "html"]))
        t = resolve_edges_batch(links)
        edges.update(zip(t["src"].to_pylist(), t["dst"].to_pylist()))
    nodes = sorted({s for s, _ in edges} | {d for _, d in edges})
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in sorted(edges):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = min(ra, rb), max(ra, rb)
            parent[hi] = lo
    return pa.table({
        "node": pa.array(nodes, pa.string()),
        "component": pa.array([find(n) for n in nodes], pa.string()),
    })


def _gen_embedding_neardup(sf_dir: str, bucket_cap: int = 1024) -> pa.Table:
    """Serial run of the same hyperplane-LSH bucketing + per-bucket
    cosine verify (sorted by key, identical float32 op order), INCLUDING
    the engine's ``bucket_cap`` star fallback (ADVICE r2: a hot bucket
    beyond the cap previously made the golden diverge from the engine —
    the golden did uncapped all-pairs — turning a documented fallback
    into a false gate failure)."""
    import numpy as np
    from zhtml_ray.functions.dedup import HyperplaneLsh
    from zhtml_ray.pipelines.ops_queries import planted_embeddings
    t = planted_embeddings(sf_dir)
    dim = len(t["embedding"][0].as_py())
    bucketed = HyperplaneLsh(dim=dim, n_planes=12, seed=42)(t)
    keys = np.asarray(bucketed["vec_id"].to_pylist())
    emb = np.asarray(bucketed["embedding"].to_pylist(), np.float32)
    bucks = np.asarray(bucketed["lsh_bucket"].to_pylist())
    ka, kb = [], []
    for b in np.unique(bucks):
        sel = np.nonzero(bucks == b)[0]
        if len(sel) < 2:
            continue
        order = np.argsort(keys[sel])
        sel = sel[order]
        m = emb[sel]
        norm = np.linalg.norm(m, axis=1, keepdims=True)
        norm[norm == 0] = 1
        m = m / norm
        if len(sel) > bucket_cap:
            # mirror the engine's star verification against the min-key
            # member (functions/dedup.py embedding_neardup)
            sim = m[1:] @ m[0]
            mask = sim >= 0.98
            ka.extend([int(keys[sel][0])] * int(mask.sum()))
            kb.extend(keys[sel][1:][mask].tolist())
            continue
        sim = m @ m.T
        ia, ib = np.triu_indices(len(sel), k=1)
        mask = sim[ia, ib] >= 0.98
        ka.extend(keys[sel][ia[mask]].tolist())
        kb.extend(keys[sel][ib[mask]].tolist())
    return pa.table({"key_a": pa.array(ka, pa.int64()),
                     "key_b": pa.array(kb, pa.int64())})


def _gen_ivf_topk(sf_dir: str) -> pa.Table:
    """Serial same-algorithm pinned run of the IVF top-k path (VERDICT
    r2 item 4). Valid because at every gate scale the coarse-quantizer
    training set is the FULL table: n must be ≤ sample (2048) — beyond
    that train_centroids THINS to `sample` rows via a permutation of
    dataset-order rows (layout-dependent), and between 2049 and 4096 it
    still thins even though random_sample is skipped (r3 review
    finding: the guard must be `sample`, not 2×sample). Every kernel is
    seeded and cosines are row-wise float32 dots
    (batch-layout-invariant). The recall property vs exact brute force
    is separately pytest-gated
    (tests/test_functions.py::test_ivf_recall_vs_brute_force)."""
    import numpy as np
    from zhtml_ray.functions.similarity import (_content_sorted, _kmeans,
                                                _normalize)
    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    ids = np.asarray(t["vec_id"].to_pylist())
    emb = np.asarray(t["embedding"].to_pylist(), np.float32)
    # queries: first 5 vectors by vec_id, float64 round-trip — exactly
    # ops_queries._query_vectors
    qv = np.asarray(t.sort_by("vec_id")["embedding"].to_pylist()[:5],
                    np.float64)
    n_centroids, n_probe, k, seed = 8, 4, 10, 42  # q_ivf_topk's params
    assert len(emb) <= 2048, \
        "serial ivf golden needs the untrimmed full-table training path"
    # train_centroids puts rows in content order before training
    # (layout/schedule invariance) — replicate exactly
    cent = _kmeans(_content_sorted(emb.copy()), n_centroids,
                   iters=10, seed=seed)
    emb_n = _normalize(emb.copy())
    assign = (emb_n @ cent.T).argmax(axis=1)
    q = _normalize(np.asarray(qv, np.float32))
    probe = np.argsort(-(q @ cent.T), axis=1)[:, :n_probe]
    wanted = {int(c) for row in probe for c in row}
    sel = np.isin(assign, sorted(wanted))
    keys, m = ids[sel], emb_n[sel]
    sims = q @ m.T
    qid_out, key_out = [], []
    for qi in range(len(q)):
        order = np.lexsort((keys, -sims[qi]))[:k]  # cosine DESC, key ASC
        qid_out.extend([qi] * len(order))
        key_out.extend(keys[order].tolist())
    return pa.table({"query_id": pa.array(qid_out, pa.int32()),
                     "vec_id": pa.array(key_out, pa.int64())})


def _gen_semantic_dedup(sf_dir: str) -> pa.Table:
    """Serial same-kernel pinned run of the SemDeDup path. Valid at
    gate scales for the same reason as ``_gen_ivf_topk``: the fit is
    the exactly-layout-invariant driver mode of ``kmeans_fit`` (which
    IS the shared serial ``_kmeans`` on vectors in dataset order), the
    assignment is a row-stable float32 matmul-argmax, and the
    within-cluster pass is the SAME ``_greedy_leader`` kernel on the
    same ascending-key member order."""
    import numpy as np
    from zhtml_ray.functions.similarity import (_content_sorted,
                                                _greedy_leader, _kmeans,
                                                _normalize)
    from zhtml_ray.pipelines.ops_queries import planted_embeddings
    t = planted_embeddings(sf_dir)
    keys = np.asarray(t["vec_id"].to_pylist(), np.int64)
    emb = np.asarray(t["embedding"].to_pylist(), np.float32)
    assert len(emb) <= 65536, \
        "serial semantic_dedup golden needs kmeans_fit's driver mode"
    cent = _kmeans(_content_sorted(emb.copy()), 8, iters=10,
                   seed=42)  # q_semantic_dedup's params
    emb_n = _normalize(emb.copy())
    assign = (emb_n @ cent.T).argmax(axis=1).astype(np.int32)
    out_key, out_cell, out_kept, out_dup = [], [], [], []
    for c in sorted(set(assign.tolist())):
        sel = assign == c
        ks, kept, leader = _greedy_leader(keys[sel], emb_n[sel], 0.98)
        out_key.extend(ks.tolist())
        out_cell.extend([c] * len(ks))
        out_kept.extend(kept.tolist())
        out_dup.extend(leader.tolist())
    return pa.table({"vec_id": pa.array(out_key, pa.int64()),
                     "cell": pa.array(out_cell, pa.int32()),
                     "kept": pa.array(out_kept, pa.bool_()),
                     "dup_of": pa.array(out_dup, pa.int64())})


def _gen_pq_topk(sf_dir: str) -> pa.Table:
    """Serial same-algorithm pinned run of the product-quantization ANN
    path (Jégou et al. 2011). Valid at gate scales because ``pq_fit``
    takes its exactly-layout-invariant driver mode there (full table ≤
    driver_budget_rows, CONTENT-sorted before training — iter_batches
    arrival order cancels out), encoding is a per-row argmin (layout
    free), and ADC scores are 6-dp pinned identical float ops on both
    sides. Recall vs exact brute force is pytest-gated separately
    (tests/test_retrieval.py::test_pq_recall_vs_brute_force)."""
    import numpy as np
    from zhtml_ray.functions.similarity import (_content_sorted, _kmeans_l2,
                                                _normalize, pq_adc_scores,
                                                pq_encode_matrix,
                                                pq_exact_scores)
    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    ids = np.asarray(t["vec_id"].to_pylist(), np.int64)
    emb = np.asarray(t["embedding"].to_pylist(), np.float32)
    assert len(emb) <= 65536, \
        "serial pq golden needs pq_fit's full-table driver mode"
    m, ks, iters, seed = 8, 256, 10, 42  # q_pq_topk's params
    r, k = 50, 10  # ADC shortlist R, final k
    x = _normalize(_content_sorted(emb.copy()))
    dsub = x.shape[1] // m
    books = np.empty((m, ks, dsub), np.float32)
    for j in range(m):
        books[j] = _kmeans_l2(x[:, j * dsub:(j + 1) * dsub], ks,
                              iters, seed + j)
    emb_n = _normalize(emb.copy())
    codes = pq_encode_matrix(emb_n, books)
    # queries: first 5 vectors by vec_id, float64 round-trip — exactly
    # ops_queries._query_vectors, then pq_topk's float32-normalize
    qv = np.asarray(t.sort_by("vec_id")["embedding"].to_pylist()[:5],
                    np.float64)
    q = _normalize(np.asarray(qv, np.float32)).astype(np.float64)
    adc = pq_adc_scores(codes, books, q)
    exact = pq_exact_scores(emb_n, q)
    qid_out, key_out, sim_out = [], [], []
    for qi in range(len(q)):
        short = np.lexsort((ids, -adc[qi]))[:r]  # ADC DESC, key ASC
        ks_, row = ids[short], exact[qi][short]
        order = np.lexsort((ks_, -row))[:k]  # exact DESC, key ASC
        qid_out.extend([qi] * len(order))
        key_out.extend(ks_[order].tolist())
        sim_out.extend(row[order].tolist())
    return pa.table({"query_id": pa.array(qid_out, pa.int32()),
                     "vec_id": pa.array(key_out, pa.int64()),
                     "score": pa.array(sim_out, pa.float64())})


def _gen_pdf_extract(sf_dir: str) -> pa.Table:
    from zhtml_ray.functions.pdf import PdfExtractBatch, gen_pdf_table
    from zhtml_ray.pipelines.ops_queries import _media_rows_for
    tbl = gen_pdf_table(_media_rows_for(sf_dir))
    out = PdfExtractBatch()(tbl.select(["doc_id", "pdf"]))
    return out.select(["doc_id", "text", "n_pages"])


def media_feature_project(tbl: pa.Table) -> pa.Table:
    """Gate projection shared by query and golden: the fixed-size-list
    feature column rides as a canonical JSON string."""
    fj = [json.dumps(row, separators=(",", ":"))
          for row in tbl["feature"].to_pylist()]
    return pa.table({"media_id": tbl["media_id"],
                     "feature_json": pa.array(fj, pa.string()),
                     "decoded": tbl["decoded"]})


def _gen_pca_project(sf_dir: str, k: int = 4) -> pa.Table:
    """Serial PCA projection: one-process moments → the SHARED
    ``_pca_from_moments`` (identical pin + eigh + sign fix) → 6-dp
    projections. Equal output certifies the distributed moment fold is
    layout/schedule-invariant."""
    import numpy as np

    from zhtml_ray.functions.similarity import (_emb_matrix,
                                                _pca_from_moments)
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    M = _emb_matrix(t["embedding"]).astype(np.float64)
    tot = np.concatenate(([float(len(M))], M.sum(axis=0),
                          (M.T @ M).ravel()))
    C = _pca_from_moments(tot, k)
    S = np.floor(M @ C.T * 1e6 + 0.5) / 1e6
    cols = {"vec_id": t["vec_id"]}
    for i in range(k):
        cols[f"pc{i}"] = pa.array(S[:, i], pa.float64())
    return pa.table(cols)


def _gen_media_phash(sf_dir: str) -> pa.Table:
    """Serial dHash table (media_id, phash) over the dup-planted media
    fixture. The ORACLE pair list is then computed INDEPENDENTLY in
    DuckDB — a brute-force all-pairs xor/bit_count join over this
    table — so the gate certifies band-blocking recall AND the hamming
    verify, not just hash equality (the ngram_jaccard pattern)."""
    from zhtml_ray.functions.multimodal import (PHashBatch, filter_kind,
                                                gen_media_table)
    from zhtml_ray.pipelines.ops_queries import _media_rows_for
    t = gen_media_table(_media_rows_for(sf_dir), dup_every=10)
    out = PHashBatch()(filter_kind(t, "image"))
    return out.select(["media_id", "phash"])


def _gen_media_real_phash(sf_dir: str) -> pa.Table:
    """Serial dHash table over the REAL-codec media fixture: payloads
    are actual PNG/BMP/baseline-JPEG files and decode goes through
    functions/mediacodec.py (r4; JPEG twins r5 — no stub anywhere in
    this chain). Oracle pair list computed independently in DuckDB as
    with media_phash."""
    from zhtml_ray.functions.multimodal import (PHashBatch, filter_kind,
                                                gen_real_media_table,
                                                real_decode_image)
    from zhtml_ray.pipelines.ops_queries import _media_rows_for
    t = gen_real_media_table(_media_rows_for(sf_dir), dup_every=8,
                             jpeg_dup_every=8)
    out = PHashBatch(decode=real_decode_image)(filter_kind(t, "image"))
    return out.select(["media_id", "phash"])


def _gen_media_features(sf_dir: str) -> pa.Table:
    from zhtml_ray.functions.multimodal import ImageFeatures, gen_media_table
    from zhtml_ray.pipelines.ops_queries import _media_rows_for
    return media_feature_project(
        ImageFeatures()(gen_media_table(_media_rows_for(sf_dir))))


def _gen_audio_features(sf_dir: str) -> pa.Table:
    from zhtml_ray.functions.multimodal import AudioFeatures, gen_media_table
    from zhtml_ray.pipelines.ops_queries import _media_rows_for
    return AudioFeatures()(gen_media_table(_media_rows_for(sf_dir)))


def _gen_frame_sample(sf_dir: str) -> pa.Table:
    from zhtml_ray.functions.multimodal import FrameSampler, gen_media_table
    from zhtml_ray.pipelines.ops_queries import _media_rows_for
    return FrameSampler(fps=1.0)(gen_media_table(_media_rows_for(sf_dir)))


def _gen_approx_distinct_users(sf_dir: str) -> pa.Table:
    """Serial same-kernel HLL run. Valid as a pin at EVERY scale (not
    just gate scales): registers are an elementwise max of per-value
    hashes, so any partitioning of the rows folds to byte-identical
    registers — the distributed estimate can only differ if a kernel
    changes, which the source digest in the cache tag catches."""
    import numpy as np
    from zhtml_ray.functions.sketch import hll_estimate, hll_partial_batch
    t = pq.read_table(f"{sf_dir}/events.parquet",
                      columns=["event_type", "user_id"])
    part = hll_partial_batch(t, "event_type", "user_id", p=12)
    ests = [int(round(hll_estimate(np.frombuffer(r, np.uint8))))
            for r in part["regs"].to_pylist()]
    out = pa.table({"event_type": part["event_type"],
                    "approx_n": pa.array(ests, pa.int64())})
    return out.sort_by("event_type")


def _gen_word_freq_cms(sf_dir: str) -> pa.Table:
    """Serial FULL-table Count-Min sketch, probed for the shared fixed
    word list. The distributed path only ever materializes the probe
    cells, but sums commute — its answer must equal this full sketch
    byte-for-byte at any partitioning."""
    import numpy as np
    from zhtml_ray.functions.corpusstats import _encode_flat, _split_words
    from zhtml_ray.functions.sketch import cms_build, cms_estimate, \
        word_hash64
    from zhtml_ray.pipelines.ops_queries import (CMS_D, CMS_LOG2W,
                                                 CMS_PROBES)
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    words_per, lens = _split_words(t["text"].to_pylist())
    _, codes, vocab = _encode_flat(words_per, lens)
    cnt = np.bincount(codes, minlength=len(vocab)).astype(np.int64)
    tbl = cms_build(word_hash64(vocab.to_pylist()), cnt, CMS_LOG2W,
                    CMS_D)
    est = cms_estimate(tbl, word_hash64(list(CMS_PROBES)), CMS_LOG2W)
    out = pa.table({"word": pa.array(list(CMS_PROBES), pa.string()),
                    "est_n": pa.array(est.astype(np.int64), pa.int64())})
    return out.sort_by("word")


def _naive_bpe_train(words, freqs, num_merges, min_count):
    """INDEPENDENT reference BPE trainer (dict/Counter recompute per
    round, per-word while-loop merge) — shares no code with the
    vectorized flat-array trainer in ``functions/bpe.py``, so the gate
    certifies the algorithm, not just distribution-invariance."""
    from collections import Counter
    seqs = {i: tuple(w) for i, w in enumerate(words)}
    merges = []
    for _ in range(num_merges):
        pc_ = Counter()
        for i, s in seqs.items():
            f = freqs[i]
            for a, b in zip(s, s[1:]):
                pc_[(a, b)] += f
        if not pc_:
            break
        best = max(pc_.values())
        if best < min_count:
            break
        L, R = min(p for p, c in pc_.items() if c == best)
        merges.append((L, R, int(best)))
        new = L + R
        for i, s in seqs.items():
            out, j = [], 0
            while j < len(s):
                if j + 1 < len(s) and s[j] == L and s[j + 1] == R:
                    out.append(new)
                    j += 2
                else:
                    out.append(s[j])
                    j += 1
            seqs[i] = tuple(out)
    return merges


def _naive_bpe_encode(word, merges):
    s = list(word)
    for L, R, _cnt in merges:
        out, j = [], 0
        while j < len(s):
            if j + 1 < len(s) and s[j] == L and s[j + 1] == R:
                out.append(L + R)
                j += 2
            else:
                out.append(s[j])
                j += 1
        s = out
    return len(s)


def _serial_bpe_merges(sf_dir: str):
    """Word-type counts + capped selection with EXACTLY the
    distributed plan's (cnt DESC, word ASC) order, then the naive
    trainer. Split must match ``_split_encode`` (pinned equal to
    ``str.split()``)."""
    from collections import Counter

    from zhtml_ray.functions.bpe import (DEFAULT_MAX_TYPES,
                                         DEFAULT_MIN_COUNT,
                                         DEFAULT_NUM_MERGES)
    key = ("bpe_merges", sf_dir)
    if key not in _serial_cache:
        t = _docs_table(sf_dir)
        cnt = Counter()
        for s in t["text"].to_pylist():
            cnt.update((s or "").split())
        ordered = sorted(cnt.items(),
                         key=lambda kv: (-kv[1], kv[0]))[:DEFAULT_MAX_TYPES]
        words = [w for w, _ in ordered]
        freqs = [c for _, c in ordered]
        _serial_cache[key] = _naive_bpe_train(
            words, freqs, DEFAULT_NUM_MERGES, DEFAULT_MIN_COUNT)
    return _serial_cache[key]


def _gen_bpe_merges(sf_dir: str) -> pa.Table:
    from zhtml_ray.functions.bpe import merges_to_table
    return merges_to_table(_serial_bpe_merges(sf_dir))


def _gen_bpe_encode(sf_dir: str) -> pa.Table:
    merges = _serial_bpe_merges(sf_dir)
    t = _docs_table(sf_dir)
    enc_cache: dict[str, int] = {}
    out = []
    for s in t["text"].to_pylist():
        n = 0
        for w in (s or "").split():
            c = enc_cache.get(w)
            if c is None:
                c = enc_cache[w] = _naive_bpe_encode(w, merges)
            n += c
        out.append(n)
    return pa.table({"doc_id": t["doc_id"],
                     "n_bpe": pa.array(out, pa.int64())})


_GENERATORS = {
    "extract": _gen_extract,
    "extract_error_histogram": _gen_extract_error_histogram,
    "links": _gen_links,
    "images": _gen_images,
    "node_table": _gen_node_table,
    "page_meta": _gen_page_meta,
    "table_cells": _gen_table_cells,
    "token_stats": _gen_token_stats,
    "fingerprint": _gen_fingerprint,
    "simhash": _gen_simhash,
    "ngram_jaccard": _gen_ngram_jaccard,
    "incremental_neardup": _gen_incremental_neardup,
    "fuzzy_join": _gen_fuzzy_join,
    "minhash_dedup": _gen_minhash_dedup,
    "link_components": _gen_link_components,
    "embedding_neardup": _gen_embedding_neardup,
    "ivf_topk": _gen_ivf_topk,
    "pq_topk": _gen_pq_topk,
    "semantic_dedup": _gen_semantic_dedup,
    "pdf_extract": _gen_pdf_extract,
    "media_features": _gen_media_features,
    "media_phash": _gen_media_phash,
    "media_real_phash": _gen_media_real_phash,
    "pca_project": _gen_pca_project,
    "audio_features": _gen_audio_features,
    "frame_sample": _gen_frame_sample,
    "approx_distinct_users": _gen_approx_distinct_users,
    "word_freq_cms": _gen_word_freq_cms,
    "bpe_merges": _gen_bpe_merges,
    "bpe_encode": _gen_bpe_encode,
}


def _source_digest() -> str:
    """Digest of every engine source file (ADVICE r2): most goldens are
    serial runs of the SAME kernels, so any kernel edit must invalidate
    the cached goldens automatically — a stale golden after a semantic
    change would make the gate pass vacuously. Hashing the whole package
    (~0.5 MB once per process) is cheaper than curating per-generator
    dependency lists and can never under-invalidate."""
    global _SRC_DIGEST
    if _SRC_DIGEST is None:
        import hashlib
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        h = hashlib.sha1()
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()  # deterministic traversal order
            for f in sorted(filenames):
                if f.endswith(".py"):
                    p = os.path.join(dirpath, f)
                    # RELATIVE path: an absolute path in the digest made
                    # goldens checkout-location-dependent (r3 review)
                    h.update(os.path.relpath(p, root).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
        _SRC_DIGEST = h.hexdigest()[:10]
    return _SRC_DIGEST


_SRC_DIGEST: str | None = None


def _inputs_digest(sf_dir: str) -> str:
    """Stat-based identity of the sf_dir parquet inputs the generators
    read (r3 review): FIXTURE_VERSION only versions the synthetic pages
    fixture, but documents/embeddings/lineitem goldens read sf_dir
    directly — regenerated testdata with the same basename must not be
    served a stale cached golden. (name, size, mtime_ns) is cheap and
    catches every driver regeneration; content hashing multi-MB parquet
    per ensure_golden would not be."""
    import hashlib
    h = hashlib.sha1()
    try:
        for f in sorted(os.listdir(sf_dir)):
            if f.endswith(".parquet"):
                st = os.stat(os.path.join(sf_dir, f))
                h.update(f"{f}:{st.st_size}:{st.st_mtime_ns};".encode())
    except OSError:
        pass
    return h.hexdigest()[:8]


def _cache_tag(sf_dir: str) -> str:
    from zhtml_ray.pipelines.extract import n_pages_for
    from zhtml_ray.sources.pages import FIXTURE_VERSION
    token = os.path.basename(os.path.normpath(sf_dir))
    return (f"v{FIXTURE_VERSION}_{token}_n{n_pages_for(sf_dir)}"
            f"_d{_inputs_digest(sf_dir)}_s{_source_digest()}")


def pregenerate(sf_dir: str = "/root/testdata/sf0.01") -> None:
    """Safety net called from oracle_sql(): materialize every golden for
    the driver's gate scale up front, so the SQL side never races the
    query side (works whatever order the driver interleaves them; each
    query callable still refreshes the fixed path for ITS sf). Never
    raises — a failed generator surfaces later as that one query's
    oracle mismatch, not as a broken oracle_sql()."""
    if not os.path.isdir(sf_dir):
        return
    for name in _GENERATORS:
        try:
            # refresh_current=False: never clobber a fixed-path golden a
            # query callable already wrote for a DIFFERENT scale this
            # run — only fill in files that don't exist yet
            ensure_golden(name, sf_dir, refresh_current=False)
        except Exception:  # noqa: BLE001
            import logging
            logging.getLogger(__name__).exception(
                "golden pregeneration failed for %s", name)


def ensure_golden(name: str, sf_dir: str,
                  refresh_current: bool = True) -> str:
    """Serially compute query ``name``'s pinned expected output for
    ``sf_dir`` (cached per fixture version + scale) and refresh the
    fixed path the oracle SQL reads. All writes are pid-suffixed temp +
    atomic rename so concurrent gate runs can't interleave into a
    torn parquet. ``refresh_current=False`` only creates the fixed path
    when missing (pregeneration must not clobber another scale's
    already-written golden). Returns the fixed path."""
    _clean_stale_current()
    cache = os.path.join(GOLDEN_ROOT, _cache_tag(sf_dir))
    os.makedirs(cache, exist_ok=True)
    os.makedirs(_current_dir(), exist_ok=True)
    # claim the digest dir for this process lifetime: a concurrent run
    # on NEWER sources must not sweep it mid-gate (see
    # _clean_stale_current)
    marker = os.path.join(cache, f".inuse.{os.getpid()}")
    if not os.path.exists(marker):
        open(marker, "w").close()
    cached = os.path.join(cache, f"{name}.parquet")
    if not os.path.exists(cached):
        tbl = _GENERATORS[name](sf_dir)
        tmp = cached + f".tmp.{os.getpid()}"
        pq.write_table(tbl, tmp)
        os.replace(tmp, cached)
    fixed = os.path.join(_current_dir(), f"{name}.parquet")
    if not refresh_current and os.path.exists(fixed):
        return fixed
    tmp = fixed + f".tmp.{os.getpid()}"
    shutil.copyfile(cached, tmp)
    os.replace(tmp, fixed)
    return fixed

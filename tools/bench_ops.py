"""Ops bench: one table of timed ops over cached deterministic fixtures.

    python tools/bench_ops.py [OP ...] [--scale X] [--out FILE]

OP is an id of ``OPS`` (``<fixture>:<name>``), a fixture kind (all of
its ops) or ``all``; the default is ``TRACKED``, the ten ops of the
``BENCH_OPS_rNN.json`` family. Each op gets one untimed warm-up and one
timed run, then prints ``{op, fixture, wall_s, rows}`` (plus ``counts``
where the op has side counts); a summary line follows. A record file
is written only with ``--out`` and never over an existing file.

Registry ops are ``__ray_entry__.queries()`` callables applied to an
sf-style directory; the rest call engine functions directly. The ``sf``
ops run on ``$GRAFT_SF_DIR``, bench.py's testdata dir (default sf0.1),
which also seeds the docs corpus.

The Ray session gets ``RAY_GRAFT_CPUS`` cpus (default: the CPU
affinity). An existing session is reused and left running.

Fixtures are deterministic and cached under ``CACHE``, keyed by kind,
``FIXTURE_VERSION`` and size. Each size is its kind's ``SIZES``
constant times ``--scale``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
import zlib
from collections.abc import Callable
from typing import Any, NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402
import ray  # noqa: E402
import ray.data as rd  # noqa: E402

from bench import SF_DIR  # noqa: E402
from perfbench.session import (  # noqa: E402
    Deadline, affinity_cpus, cpu_times, kill_session, ray_temp_dir,
    steal_pct)
from zhtml_ray.functions.corpusstats import (  # noqa: E402
    dup_ngrams, mask_dup_spans, ngram_logprob, rep_signals_batch,
    vocab_doc_freq)
from zhtml_ray.functions.dedup import (  # noqa: E402
    label_propagation, minhash_dedup)
from zhtml_ray.functions.graph import (  # noqa: E402
    degree_histogram, hits, pagerank)
from zhtml_ray.functions.multimodal import (  # noqa: E402
    filter_kind, gen_media_table, phash_neardup)
from zhtml_ray.functions.retrieval import (  # noqa: E402
    bm25_topk, build_inverted_index, inverted_index_lookup)
from zhtml_ray.functions.similarity import (  # noqa: E402
    kmeans_fit, pca_fit, pca_transform, semantic_dedup)
from zhtml_ray.functions.sketch import (  # noqa: E402
    approx_distinct, cms_probe_freqs)
from zhtml_ray.pipelines.ops_queries import (  # noqa: E402
    _BM25_QUERIES, CMS_D, CMS_LOG2W, CMS_PROBES, chunk_docs_batch,
    fuzzy_best_match, web_pipeline_ds)

CACHE = os.path.join(tempfile.gettempdir(), "zhtml_ray_ops_bench")
# bump when a builder's output changes, so no stale fixture is timed
FIXTURE_VERSION = 2
# rows at --scale 1; "docsdir" is the docs corpus as one sf-style file
SIZES = {"docs": 200_000, "events": 2_000_000, "edges": 3_000_000,
         "emb": 200_000, "media": 30_000}
# a hung session fails the run (exit 3) instead of blocking it
OP_DEADLINE_S = 1800


# -- fixture builders: (out_dir, n rows, Fixtures) -> writes out_dir --

def _build_docs(out: str, n: int, fx: Fixtures) -> None:
    """The sf documents expanded to n rows: 30% exact copies of their
    base doc (near-dup clusters), the rest a seeded word shuffle plus
    unique salt tokens (low pairwise Jaccard)."""
    texts = pq.read_table(os.path.join(fx.sf, "documents.parquet"),
                          columns=["text"])["text"].to_pylist()
    out_txt = []
    for i in range(n):
        t = texts[i % len(texts)] or ""
        if i % 10 < 3:
            out_txt.append(t)
        else:
            w = t.split()
            np.random.RandomState(i).shuffle(w)
            out_txt.append(" ".join([f"salt{i}", *w, f"tok{i * 31}"]))
    t = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": pa.array(out_txt, pa.string())})
    # 32 shards: the fused read -> map stages parallelize per file, and
    # the dedup ops read the corpus more than once
    per = -(-n // 32)
    for s in range(32):
        part = t.slice(s * per, per)
        if part.num_rows:
            pq.write_table(part, os.path.join(out, f"part-{s:04d}.parquet"))


# bigrams planted in 1/2, 1/4 and 1/8 of the docsdir docs: each is well
# above 1/700 of all bigrams (docs average ~55 words), so
# q_heavy_hitters' nominees reach its recount at every scale; the
# word-soup corpus alone holds no bigram that frequent
HEAVY_BIGRAMS = ("heavy hitter", "planted pair", "frequent bigram")


def _plant_heavy_bigram(text: str) -> str:
    """Prefix one of ``HEAVY_BIGRAMS`` chosen by a hash of the text, so
    exact copies stay exact copies."""
    h = zlib.crc32(text.encode()) & 7
    i = 0 if h < 4 else 1 if h < 6 else 2 if h == 6 else None
    return text if i is None else f"{HEAVY_BIGRAMS[i]} {text}"


def _build_docsdir(out: str, n: int, fx: Fixtures) -> None:
    """The docs corpus as ``documents.parquet`` of an sf-style dir, with
    the ``source`` column ``q_incremental_dedup`` splits on and the
    ``HEAVY_BIGRAMS`` planted."""
    t = pq.read_table(fx.get("docs")[1])
    src = pc.binary_join_element_wise(
        "src", pc.cast(pc.bit_wise_and(t["doc_id"], 15), pa.string()), "")
    text = pa.array([x if x is None else _plant_heavy_bigram(x)
                     for x in t["text"].to_pylist()], pa.string())
    t = t.set_column(t.schema.get_field_index("text"), "text", text)
    pq.write_table(t.append_column("source", src),
                   os.path.join(out, "documents.parquet"))


def _build_events(out: str, n: int, fx: Fixtures) -> None:
    """One year of events over n/100 users (20k at --scale 1), so the
    per-user density the window ops join on holds at every scale."""
    rng = np.random.RandomState(11)
    base = np.int64(1_700_000_000_000_000)  # epoch µs
    ts = base + rng.randint(0, 365 * 86400, n).astype(np.int64) * 1_000_000
    types = np.asarray(["signup", "view", "click", "purchase", "scroll"],
                       object)
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(ts).cast(pa.timestamp("us")),
        "user_id": pa.array(rng.randint(0, max(1, n // 100), n)
                            .astype(np.int64)),
        "event_type": pa.array(types[rng.randint(0, 5, n)].tolist(),
                               pa.string()),
        "value": pa.array(np.round(rng.uniform(0, 1000, n), 2)),
        "props": pa.array(["{}"] * n, pa.string()),
    }), os.path.join(out, "events.parquet"))


def _build_edges(out: str, n: int, fx: Fixtures) -> None:
    """Distinct (src, dst) host links over n/10 nodes; dst is drawn
    from a squared uniform, so a few hosts take most in-links."""
    nodes = max(2, n // 10)
    rng = np.random.RandomState(7)
    src = rng.randint(0, nodes, n)
    dst = (rng.random_sample(n) ** 2 * nodes).astype(np.int64)
    keep = src != dst
    pairs = np.unique(np.stack([src[keep], dst[keep]], axis=1), axis=0)
    pq.write_table(pa.table({
        "src": pa.array([f"https://h{s}.ex/" for s in pairs[:, 0]]),
        "dst": pa.array([f"https://h{d}.ex/" for d in pairs[:, 1]]),
    }), os.path.join(out, "edges.parquet"))


def _build_emb(out: str, n: int, fx: Fixtures, dim: int = 64) -> None:
    """Vectors around n/3000 planted centers; 25% of rows are 1e-3
    noise copies of an earlier row, the semantic-dedup load."""
    rng = np.random.RandomState(13)
    n_centers = max(8, n // 3000)
    centers = rng.standard_normal((n_centers, dim)).astype(np.float32)
    vecs = centers[rng.randint(0, n_centers, n)] + \
        rng.standard_normal((n, dim)).astype(np.float32) * 0.25
    dup_of = rng.randint(0, n, n)
    is_dup = (np.arange(n) % 4 == 3) & (dup_of < np.arange(n))
    vecs[is_dup] = vecs[dup_of[is_dup]] + rng.standard_normal(
        (int(is_dup.sum()), dim)).astype(np.float32) * 1e-3
    pq.write_table(pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(vecs.ravel()), dim).cast(pa.list_(pa.float32())),
    }), os.path.join(out, "embeddings.parquet"))


BUILDERS = {"docs": _build_docs, "docsdir": _build_docsdir,
            "events": _build_events, "edges": _build_edges,
            "emb": _build_emb}


class Fixtures:
    """Fixture kind -> (name, value), built once per cache key. The
    value is a directory, except ``sf`` (the testdata dir itself) and
    ``media`` (an in-memory table)."""

    def __init__(self, sf: str, scale: float, root: str = CACHE):
        self.sf, self.scale, self.root = sf, scale, root

    def get(self, kind: str) -> tuple[str, Any]:
        if kind == "sf":
            return self.sf, self.sf
        n = max(1, round(SIZES["docs" if kind == "docsdir" else kind]
                         * self.scale))
        key = f"{kind}-v{FIXTURE_VERSION}-n{n}"
        if kind == "media":
            return key, gen_media_table(n, dup_every=10)
        if kind in ("docs", "docsdir"):
            key += "-" + os.path.basename(os.path.normpath(self.sf))
        path = os.path.join(self.root, key)
        if not os.path.exists(path):
            tmp = f"{path}.tmp{os.getpid()}"
            shutil.rmtree(tmp, ignore_errors=True)
            os.makedirs(tmp)
            BUILDERS[kind](tmp, n, self)
            os.replace(tmp, path)
        return key, path


# -- the op table --

class Op(NamedTuple):
    # a queries() registry name, called on the fixture dir, or a
    # callable of the fixture value (or of setup's result)
    run: str | Callable
    # untimed, once per op: what run needs beyond the fixture
    setup: Callable | None = None
    # untimed side counts: (setup result, run output) -> dict
    counts: Callable | None = None


def _pq(d: str, name: str, **kw):
    return rd.read_parquet(os.path.join(d, f"{name}.parquet"), **kw)


def _invidx(p: str) -> str:
    idx = p + "-invidx"
    build_inverted_index(rd.read_parquet(p, columns=["doc_id", "text"]), idx)
    return idx


def _with_k(p: str) -> tuple[str, int]:
    """k-means centroids scale with the vectors: n/3000, at least 16."""
    n = pq.ParquetFile(os.path.join(p, "embeddings.parquet")).metadata.num_rows
    return p, max(16, n // 3000)


def _n_dup(a, out) -> dict:
    return {"n_dup": int(out.sum("is_dup") or 0)}


def _registry(kind: str, names: str) -> dict[str, Op]:
    return {f"{kind}:{n}": Op(n) for n in names.split()}


TRACKED = ["sf:web_pipeline", "sf:mask_dup_spans", "sf:minhash_dedup",
           "sf:paragraph_dedup", "sf:inverted_index", "sf:bpe_merges",
           "sf:link_pagerank", "sf:decontaminate", "sf:semantic_dedup",
           "sf:pq_topk"]

OPS: dict[str, Op] = {
    # computation-only form: q_web_pipeline also writes oracle goldens
    "sf:web_pipeline": Op(web_pipeline_ds),
    **_registry("sf", " ".join(t.removeprefix("sf:") for t in TRACKED[1:])),
    **_registry("sf", """
        q7_nation_volume q8_market_share q9_nation_margin
        q10_returned_items q11_important_parts q12_late_shipments
        q15_top_supplier q16_supplier_counts q17_small_quantity_revenue
        q18_large_orders q19_disjunctive_revenue q20_promo_suppliers
        q21_single_blame q22_idle_balance q2_min_cost_supplier
        q6_forecast_revenue gopher_rules dsir_select train_val_split
        word_dropout user_churn events_anomaly ann_topk_filtered"""),
    # the file sources (sources/files.py): each reads shards it writes
    # from documents.parquet on first call, so warm-up pays for them
    **_registry("sf", """
        jsonl_docs csv_docs warc_docs webdataset_docs arrow_ipc_docs
        orc_docs"""),
    "docs:bm25_topk": Op(lambda p: bm25_topk(
        rd.read_parquet(p), _BM25_QUERIES, k=10)),
    "docs:mask_dup_spans": Op(lambda p: mask_dup_spans(
        rd.read_parquet(p), n=10)),
    "docs:chunk_docs": Op(lambda p: rd.read_parquet(p).map_batches(
        chunk_docs_batch, batch_format="pyarrow")),
    "docs:bigram_logprob": Op(lambda p: ngram_logprob(
        rd.read_parquet(p, columns=["doc_id", "text"]), 2)),
    # rows: postings written (parquet metadata)
    "docs:invidx_build": Op(lambda p: rd.read_parquet(_invidx(p))),
    "docs:invidx_probe": Op(
        lambda a: inverted_index_lookup(
            a[0], ["hash", "join", "vector", "sort"], scan_stats=a[1]),
        setup=lambda p: (_invidx(p), {}),
        counts=lambda a, out: {
            "invidx_buckets_read": a[1]["n_buckets_read"],
            "invidx_buckets_total": a[1]["n_buckets_total"]}),
    "docs:fuzzy_join": Op(lambda p: fuzzy_best_match(
        rd.read_parquet(p, columns=["doc_id", "text"]))),
    "docs:minhash_dedup": Op(lambda p: minhash_dedup(
        rd.read_parquet(p), key="doc_id", col="text").materialize(),
        counts=_n_dup),
    "docs:rep_signals": Op(lambda p: rd.read_parquet(p).map_batches(
        rep_signals_batch, batch_format="pyarrow")),
    "docs:vocab_df": Op(lambda p: vocab_doc_freq(
        rd.read_parquet(p), k=100)),
    "docs:dup_ngrams": Op(lambda p: dup_ngrams(rd.read_parquet(p), n=5)),
    "docs:unigram_logprob": Op(lambda p: ngram_logprob(
        rd.read_parquet(p), 1)),
    **_registry("docsdir", """
        shuffle_order incremental_dedup top_words tfidf_top_terms
        pmi_collocations snapshot_diff heavy_hitters ppl_buckets
        snapshot_upsert"""),
    "docsdir:word_freq_cms": Op(lambda d: cms_probe_freqs(
        _pq(d, "documents", columns=["text"]), list(CMS_PROBES),
        CMS_LOG2W, CMS_D)),
    **_registry("events", """
        events_value_rank events_moving_avg events_funnel
        events_distinct_users events_retention events_ntile
        user_event_path event_trigrams window_join event_pivot
        event_melt event_dedup_window"""),
    "events:approx_distinct_users": Op(lambda d: approx_distinct(
        _pq(d, "events", columns=["event_type", "user_id"]),
        "event_type", "user_id", 12)),
    "edges:pagerank_5it": Op(lambda d: pagerank(_pq(d, "edges"))),
    "edges:components": Op(lambda d: label_propagation(
        _pq(d, "edges").map_batches(
            lambda b: b.rename_columns(["key_a", "key_b"]),
            batch_format="pyarrow"))),
    "edges:degree_hist": Op(lambda d: degree_histogram(_pq(d, "edges"))),
    "edges:hits": Op(lambda d: hits(_pq(d, "edges"))),
    "emb:pca_fit": Op(lambda d: pca_fit(_pq(d, "embeddings"), k=4)),
    "emb:pca_transform": Op(
        lambda a: pca_transform(_pq(a[0], "embeddings"), a[1]),
        setup=lambda d: (d, pca_fit(_pq(d, "embeddings"), k=4))),
    # driver_budget_rows=1024 forces the distributed Lloyd branch
    "emb:kmeans_fit": Op(lambda a: kmeans_fit(
        _pq(a[0], "embeddings"), n_centroids=a[1], iters=10,
        driver_budget_rows=1024), setup=_with_k),
    "emb:semantic_dedup": Op(
        lambda a: semantic_dedup(_pq(a[0], "embeddings"), threshold=0.99,
                                 n_centroids=a[1], iters=10).materialize(),
        setup=_with_k,
        counts=lambda a, out: {
            "dropped": out.filter(expr="kept == False").count()}),
    "media:phash_neardup": Op(lambda t: phash_neardup(
        rd.from_arrow(t).map_batches(lambda b: filter_kind(b, "image"),
                                     batch_format="pyarrow"))),
}


def select(args: list[str]) -> list[str]:
    """Op ids for OP arguments: an id, a fixture kind, or ``all``."""
    out = []
    for a in args:
        ids = [i for i in OPS if a in ("all", i, i.split(":")[0])]
        if not ids:
            raise KeyError(a)
        out += [i for i in ids if i not in out]
    return out


def _rows(out) -> int:
    if isinstance(out, rd.Dataset):
        return out.count()
    return out if isinstance(out, int) else len(out)


def run_op(op_id: str, fx: Fixtures, warmup: bool = True) -> dict:
    """Time one op; warm-up first, since several registry callables
    build their DuckDB oracle goldens on the first call after a source
    change, a one-time cost that must not enter the wall."""
    op = OPS[op_id]
    name, value = fx.get(op_id.split(":")[0])
    if isinstance(op.run, str):
        import __ray_entry__
        fn = __ray_entry__.queries()[op.run]
    else:
        fn = op.run
    arg = op.setup(value) if op.setup else value
    for _ in range(1 + warmup):
        out = None  # free the warm-up's blocks before the timed run
        t0 = time.perf_counter()
        out = fn(arg)
        rows = _rows(out)
        wall = time.perf_counter() - t0
    rec = {"op": op_id, "fixture": name, "wall_s": round(wall, 2),
           "rows": int(rows)}
    if op.counts:
        rec["counts"] = op.counts(arg, out)
    return rec


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="bench_ops.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("ops", nargs="*", metavar="OP", default=TRACKED,
                    help="op id, fixture kind or 'all' (default: TRACKED)")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplier on every fixture size (SIZES)")
    ap.add_argument("--out", help="also write the summary here (new file)")
    args = ap.parse_args(argv)
    try:
        ids = select(args.ops)
    except KeyError as e:
        ap.error(f"unknown op {e}; ids: {', '.join(OPS)}")
    if args.out and os.path.exists(args.out):
        print(f"{args.out} exists; records are never overwritten",
              file=sys.stderr)
        return 2

    temp = ray_temp_dir(CACHE)
    owns = not ray.is_initialized()
    if owns:
        kill_session(temp)
        shutil.rmtree(temp, ignore_errors=True)
        os.makedirs(temp)
        # workers import zhtml_ray from this checkout, whatever the cwd
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS")
                              or affinity_cpus()),
                 include_dashboard=False, logging_level="ERROR",
                 _temp_dir=temp)
    try:
        rd.DataContext.get_current().enable_progress_bars = False
        fx = Fixtures(SF_DIR, args.scale)
        before = cpu_times()
        ops = {}
        for op_id in ids:
            with Deadline(OP_DEADLINE_S, temp):
                rec = run_op(op_id, fx)
            print(json.dumps(rec), flush=True)
            ops[rec.pop("op")] = rec
        doc = {"sf_dir": SF_DIR, "scale": args.scale,
               "num_cpus": int(ray.cluster_resources().get("CPU", 0)),
               "affinity_cpus": affinity_cpus(),
               "steal_pct": round(steal_pct(before, cpu_times()), 2),
               "total_s": round(sum(r["wall_s"] for r in ops.values()), 1),
               "ops": ops}
        print(json.dumps(doc))
        if args.out:
            with open(args.out, "x") as f:
                json.dump(doc, f, indent=1)
        return 0
    finally:
        if owns:
            ray.shutdown()
            kill_session(temp)
            shutil.rmtree(temp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

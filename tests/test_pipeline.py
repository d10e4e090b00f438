"""Ray pipeline tests: distributed extraction must be byte-identical to
the committed golden table at any parallelism/partitioning (SURVEY.md
§5.3, the determinism invariant of BASELINE.json's metric)."""

import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def pages_ds(ray_session, tmp_path_factory):
    import ray.data as rd
    from zhtml_ray.sources.pages import write_pages_dataset
    out = str(tmp_path_factory.mktemp("pages"))
    write_pages_dataset(out, 500, rows_per_file=100)
    return rd.read_parquet(out, columns=["url", "html", "lang"])


def _golden_map():
    golden = pq.read_table("tests/golden/golden_500.parquet")
    return dict(zip(golden["url"].to_pylist(),
                    golden["extracted_text"].to_pylist()))


@pytest.mark.parametrize("batch_size", [64, 7])
def test_distributed_matches_golden(pages_ds, batch_size):
    from zhtml_ray.pipelines.extract import extract_pages
    ds = extract_pages(pages_ds, batch_size=batch_size)
    rows = ds.take_all()
    assert len(rows) == 500
    gold = _golden_map()
    for r in rows:
        assert r["ok"], f"{r['url']} failed: {r['fail_reason']}"
        assert r["extracted_text"] == gold[r["url"]], r["url"]


def test_repartitioned_matches_golden(pages_ds):
    from zhtml_ray.pipelines.extract import extract_pages
    ds = extract_pages(pages_ds.repartition(17), batch_size=13)
    gold = _golden_map()
    for r in ds.take_all():
        assert r["extracted_text"] == gold[r["url"]], r["url"]


def test_write_parquet_roundtrip(pages_ds, tmp_path):
    from zhtml_ray.pipelines.extract import extract_pages
    out = str(tmp_path / "out")
    extract_pages(pages_ds, include_spans=True).write_parquet(out)
    back = pq.read_table(out)
    assert back.num_rows == 500
    assert set(back.column_names) >= {"url", "extracted_text", "spans",
                                      "quirks", "errors", "ok"}
    # SURVEY §1.3: errors is list<struct<code,line,col>>
    f = back.schema.field("errors").type
    assert {sf.name for sf in f.value_type} == {"code", "line", "col"}


def test_entry_contract(ray_session):
    import os
    import sys
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import __ray_entry__ as e
    ds = e.entry()
    n = ds.count() if hasattr(ds, "count") else len(ds)
    assert n >= 0
    q = e.queries()
    o = e.oracle_sql()
    assert set(o) <= set(q), "every oracle key must have a query"
    # FULL oracle coverage (r4 guard): a queries() entry without an
    # oracle silently downgrades the driver's check to rows-only —
    # every query must carry one unless explicitly allowlisted here
    no_oracle_ok: set = set()
    missing = set(q) - set(o) - no_oracle_ok
    assert not missing, f"queries without oracle_sql: {sorted(missing)}"
    assert len(q) >= 179


def test_read_html_files_source(ray_session, tmp_path):
    """Loose .html files → same extraction as the parquet path
    (SURVEY.md §2.1 S1)."""
    from zhtml_ray.sources.pages import gen_pages_table, read_html_files
    from zhtml_ray.pipelines.extract import extract_pages
    from zhtml_ray.html.extract import extract_document

    t = gen_pages_table(5)
    for i in range(5):
        (tmp_path / f"doc{i}.html").write_bytes(t.column("html")[i].as_py())
    ds = extract_pages(read_html_files(str(tmp_path)), include_spans=False)
    rows = {r["url"].rsplit("/", 1)[-1]: r["extracted_text"]
            for r in ds.take_all()}
    assert len(rows) == 5
    for i in range(5):
        expect = extract_document(t.column("html")[i].as_py())["extracted_text"]
        assert rows[f"doc{i}.html"] == expect


def test_big_discount_orders_join_path_matches_broadcast(ray_session,
                                                       sort_tier):
    """The sort tier of the semi-join (a merge-join-as-sort) must give
    the rows of the broadcast pc.index_in path."""
    from zhtml_ray.pipelines.queries import q_big_discount_orders
    sf = "/root/testdata/sf0.001"
    a = q_big_discount_orders(sf).to_pandas() \
        .sort_values("o_orderkey").reset_index(drop=True)
    with sort_tier():
        b = q_big_discount_orders(sf).to_pandas() \
            .sort_values("o_orderkey").reset_index(drop=True)
    assert a[["o_orderkey", "o_totalprice"]].equals(
        b[["o_orderkey", "o_totalprice"]])
    assert len(a) > 0


def test_cust_no_urgent_orders_sort_path_matches_broadcast(ray_session,
                                                         sort_tier):
    """The sort tier of the anti-join (sorted_lookup_join) must give
    the rows of the inverted pc.index_in broadcast path."""
    from zhtml_ray.pipelines.queries import q_cust_no_urgent_orders
    sf = "/root/testdata/sf0.001"
    a = q_cust_no_urgent_orders(sf).to_pandas() \
        .sort_values("c_custkey").reset_index(drop=True)
    with sort_tier():
        b = q_cust_no_urgent_orders(sf).to_pandas() \
            .sort_values("c_custkey").reset_index(drop=True)
    assert a[["c_custkey", "c_acctbal"]].equals(
        b[["c_custkey", "c_acctbal"]])
    assert len(a) > 0


def test_q13_order_counts_matches_pandas(ray_session, tmp_path):
    """Randomized multi-block differential: zero-order customers (the
    LEFT JOIN survivors) must appear in the 0 bucket."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    from zhtml_ray.pipelines.queries import q13_order_counts

    rng = np.random.default_rng(7)
    n_cust, n_ord = 500, 3000
    cust = pd.DataFrame({"c_custkey": np.arange(n_cust, dtype=np.int64)})
    orders = pd.DataFrame({
        # skip a band of custkeys entirely → guaranteed zero-count rows
        "o_custkey": rng.integers(0, 350, n_ord).astype(np.int64),
        "o_orderpriority": rng.choice(
            ["1-URGENT", "2-HIGH", "5-LOW"], n_ord)})
    pq.write_table(pa.Table.from_pandas(cust),
                   str(tmp_path / "customer.parquet"))
    pq.write_table(pa.Table.from_pandas(orders),
                   str(tmp_path / "orders.parquet"))

    got = q13_order_counts(str(tmp_path))
    kept = orders[orders.o_orderpriority != "1-URGENT"]
    per_cust = kept.groupby("o_custkey").size().reindex(
        cust.c_custkey, fill_value=0)
    want = per_cust.value_counts().rename_axis("c_count") \
        .reset_index(name="custdist") \
        .sort_values(["custdist", "c_count"], ascending=[False, False]) \
        .reset_index(drop=True)
    assert got.c_count.astype(int).tolist() == want.c_count.astype(int).tolist()
    assert got.custdist.astype(int).tolist() == want.custdist.astype(int).tolist()
    assert 0 in set(got.c_count.astype(int))


def test_big_discount_orders_empty_qualifying_set(ray_session, tmp_path):
    """No qualifying lineitem → typed empty result, no KeyError on the
    schema-less distinct set."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from zhtml_ray.pipelines.queries import q_big_discount_orders
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 2], pa.int64()),
        "l_discount": pa.array([0.01, 0.02], pa.float64())}),
        str(tmp_path / "lineitem.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2], pa.int64()),
        "o_totalprice": pa.array([10.0, 20.0], pa.float64())}),
        str(tmp_path / "orders.parquet"))
    out = q_big_discount_orders(str(tmp_path)).to_pandas()
    assert len(out) == 0
    assert list(out.columns) == ["o_orderkey", "o_totalprice"]


def test_cust_no_urgent_orders_every_customer_urgent(ray_session,
                                                     tmp_path):
    """Every customer has a 1-URGENT order → the anti-join keeps no
    customer, and the empty answer still carries its typed columns."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from zhtml_ray.pipelines.queries import q_cust_no_urgent_orders
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3], pa.int64()),
        "c_acctbal": pa.array([5.0, 6.0, 7.0], pa.float64())}),
        str(tmp_path / "customer.parquet"))
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 2, 3, 2], pa.int64()),
        "o_orderpriority": pa.array(
            ["1-URGENT", "1-URGENT", "1-URGENT", "5-LOW"])}),
        str(tmp_path / "orders.parquet"))
    out = q_cust_no_urgent_orders(str(tmp_path)).to_pandas()
    assert len(out) == 0
    assert list(out.columns) == ["c_custkey", "c_acctbal"]


def test_hostile_pages_in_pipeline_bounded_wall(ray_session, tmp_path):
    """Adversarial crawl pages mixed into a normal shard must neither
    stall an actor nor poison neighbors: every hostile shape here was
    quadratic (up to 58 s for < 200 KB) before the deep-stack index
    lanes, and none is a size outlier the skew router would isolate.
    The whole 60-row run (hostile + fixture pages) must finish fast and
    byte-match the serial kernel on every row."""
    import signal
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd
    from zhtml_ray.html.extract import extract_document
    from zhtml_ray.pipelines.extract import extract_pages
    from zhtml_ray.sources.pages import gen_pages_table

    n = 12000
    hostile = [
        "<div>" * 30000 + "hello",
        "<span>" * n + "</b>" * n,
        "<div>" * n + "<form></form>" * (n // 10),
        "<div>" * n + "</template>" * n,
        "<div>" * n + "<table></table>" * (n // 6),
        "<div>" * n + "<nobr>x" * (n // 5),
        "<p>" + "<div>" * 30000 + "x",
        "<div><b>" * (n // 2) + "</b>" * (n // 2),
        "<div>" * n + "<li></li>" * (n // 8),
        "<div>" * n + "<a><a>" * (n // 8),
    ]
    fixture = gen_pages_table(50, seed=7)
    tbl = pa.table({
        "url": pa.array([f"hostile://{i}" for i in range(len(hostile))]
                        + fixture["url"].to_pylist()),
        "html": pa.array([h.encode() for h in hostile]
                         + [h if isinstance(h, bytes) else h.encode()
                            for h in fixture["html"].to_pylist()]),
        "lang": pa.array(["xx"] * len(hostile) + fixture["lang"].to_pylist()),
    })
    path = str(tmp_path / "mixed.parquet")
    pq.write_table(tbl, path)

    def alarm(sig, frame):
        raise TimeoutError("hostile page stalled the pipeline")

    old = signal.signal(signal.SIGALRM, alarm)
    try:
        signal.alarm(120)  # generous vs the single 58 s page pre-fix
        ds = extract_pages(rd.read_parquet(path), batch_size=8)
        rows = ds.take_all()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)

    assert len(rows) == tbl.num_rows
    by_url = {r["url"]: r for r in rows}
    for url, html in zip(tbl["url"].to_pylist(), tbl["html"].to_pylist()):
        r = by_url[url]
        assert r["ok"], f"{url}: {r['fail_reason']}"
        assert r["extracted_text"] == extract_document(html)["extracted_text"]


def test_pure_map_ops_never_shuffle(ray_session):
    """Plan-shape guard: pii_redact is a pure map pipeline — any future
    edit that introduces an all-to-all (sort/shuffle/aggregate) into it
    is a scale regression and must fail loudly here."""
    from zhtml_ray.pipelines.ops_queries import q_pii_redact

    ds = q_pii_redact("/root/testdata/sf0.001").materialize()
    st = ds.stats()
    for marker in ("Sort", "Shuffle", "Aggregate("):
        assert marker not in st, f"unexpected {marker} in plan:\n{st}"


def test_session10_pure_map_ops_never_shuffle(ray_session):
    """Plan-shape guards for the session-10 broadcast/map operators:
    quality_classifier, range_lookup, url_blocklist and the PCA
    transform are pure map pipelines — an all-to-all creeping into
    any of them is a scale regression."""
    from zhtml_ray.pipelines.ops_queries import (q_quality_classifier,
                                                 q_range_lookup,
                                                 q_url_blocklist)

    sf = "/root/testdata/sf0.001"
    for q in (q_quality_classifier, q_range_lookup, q_url_blocklist):
        st = q(sf).materialize().stats()
        for marker in ("Sort", "Shuffle", "Aggregate("):
            assert marker not in st, \
                f"{q.__name__}: unexpected {marker} in plan:\n{st}"


def _map_operators(monkeypatch) -> list:
    """``(name, runs on an actor pool)`` of every map operator of every
    Ray Data execution started after the call."""
    from ray.data._internal.execution.operators.actor_pool_map_operator \
        import ActorPoolMapOperator
    from ray.data._internal.execution.operators.map_operator import \
        MapOperator
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    seen = []
    execute = StreamingExecutor.execute

    def recorded(self, dag, *args, **kwargs):
        ops = [dag]
        while ops:
            op = ops.pop()
            if isinstance(op, MapOperator):
                seen.append((op.name, isinstance(op, ActorPoolMapOperator)))
            ops.extend(op.input_dependencies)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", recorded)
    return seen


def _run_query(name: str) -> None:
    import ray.data as rd
    from zhtml_ray.pipelines.queries import queries

    out = queries()[name]("/root/testdata/sf0.001")
    if isinstance(out, rd.Dataset):
        out.materialize()


@pytest.mark.parametrize("name", [
    "quality_score", "lang_id", "simhash", "nearest_centroid",
    "quality_classifier", "robots_filter", "embedding_neardup",
    "pdf_extract", "media_phash_dup", "audio_features", "brand_revenue",
    "q19_disjunctive_revenue"])
def test_stateless_stages_run_as_tasks(ray_session, monkeypatch, name):
    """A map stage with no per-process state runs on Ray Data's task
    pool (stages/util.py): an actor pool would pay seconds of start-up
    for sub-second work. Each executed plan of these registry entries
    has map operators, and none of them is an actor pool."""
    seen = _map_operators(monkeypatch)
    _run_query(name)
    assert seen and not [op for op, pool in seen if pool], seen


def test_model_stage_keeps_its_actor_pool(ray_session, monkeypatch):
    """``score_embeddings`` loads its model once per actor
    (functions/inference.py), so it stays the one actor-pool stage."""
    seen = _map_operators(monkeypatch)
    _run_query("mlp_classifier")
    assert [op for op, pool in seen if pool] and all(
        "ModelScoreStage" in op for op, pool in seen if pool), seen

"""North-rule tests: checkpoint/resume without recompute (SURVEY.md
§5.5) and mega-doc skew handling (§5.6)."""

import glob
import json
import os

import pytest


@pytest.fixture(scope="module")
def shards(ray_session, tmp_path_factory):
    from zhtml_ray.sources.pages import write_pages_dataset
    out = str(tmp_path_factory.mktemp("shards"))
    return write_pages_dataset(out, 300, rows_per_file=50)


def test_resume_skips_completed_partitions(shards, tmp_path):
    from zhtml_ray.stages.manifest import (
        completed_partitions, run_partitioned)
    out_dir = str(tmp_path / "out")

    # first run "killed" after 2 partitions
    r1 = run_partitioned(shards, out_dir, group_size=2, overlap=1,
                         fail_after=2)
    assert r1["partitions_ran"] == 2
    assert not r1["complete"]
    done_before = completed_partitions(out_dir)
    mtimes = {p: os.path.getmtime(p)
              for p in glob.glob(os.path.join(out_dir, "_manifests", "*.json"))}

    # resume: must run ONLY the remaining partitions, not recompute
    r2 = run_partitioned(shards, out_dir, group_size=2, overlap=2)
    assert r2["complete"]
    assert r2["partitions_previously_done"] == 2
    assert r2["partitions_ran"] == r2["partitions_total"] - 2
    for p, t in mtimes.items():
        assert os.path.getmtime(p) == t, f"completed manifest {p} was rewritten"

    # identical output to a fresh single-shot run (same checksum)
    out2 = str(tmp_path / "fresh")
    r3 = run_partitioned(shards, out2, group_size=2, overlap=2)
    assert r3["checksum"] == r2["checksum"]
    assert r3["rows"] == r2["rows"] == 300


def test_manifest_lineage_fields(shards, tmp_path):
    from zhtml_ray.stages.manifest import run_partitioned
    out_dir = str(tmp_path / "out")
    run_partitioned(shards[:2], out_dir, group_size=1, overlap=1)
    m = json.load(open(sorted(glob.glob(os.path.join(
        out_dir, "_manifests", "part-*.json")))[0]))
    assert set(m) >= {"partition_id", "input_files", "rows", "checksum",
                      "error_counts", "wall_s", "output_dir", "html_bytes",
                      "read_blocks", "footer_html_bytes"}
    assert m["rows"] == 50
    # the read plan: one small shard is one unsplit block, sized by the
    # html column's uncompressed footer bytes (the values plus their
    # length prefixes)
    assert m["read_blocks"] == 1
    assert m["html_bytes"] < m["footer_html_bytes"] < 1.05 * m["html_bytes"]
    assert m["input_files"]  # lineage: input shard paths recorded
    assert sum(m["error_counts"].values()) > 0


def _executed_plans(monkeypatch) -> list:
    """Operator names of every Ray Data execution started after the
    call, one list per execution, in input-to-output order."""
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    plans = []
    execute = StreamingExecutor.execute

    def recorded(self, dag, *args, **kwargs):
        ops = [dag]
        while ops[-1].input_dependencies:
            ops.append(ops[-1].input_dependencies[0])
        plans.append([op.name for op in reversed(ops)])
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", recorded)
    return plans


def test_small_shards_fuse_read_parse_write(shards, tmp_path, monkeypatch):
    """A partition of 4 small shards reads one unsplit block per shard,
    so read → parse → write run as ONE fused operator and write one
    parquet file per shard (Ray's default of >= 2×cpus read blocks
    splits each file and never fuses the split read with the parse)."""
    from zhtml_ray.stages.manifest import run_partitioned

    plans = _executed_plans(monkeypatch)
    out_dir = str(tmp_path / "out")
    assert run_partitioned(shards[:4], out_dir, group_size=4,
                           overlap=1)["rows"] == 200
    [plan] = plans
    assert [op for op in plan if op.startswith("ReadParquet")] == [
        "ReadParquet->MapBatches(ParseExtractBatch)->Write"]
    m = json.load(open(os.path.join(out_dir, "_manifests",
                                    "part-000000.json")))
    assert m["read_blocks"] == 4
    assert len(glob.glob(os.path.join(m["output_dir"], "*.parquet"))) == 4


def test_one_large_shard_still_splits(ray_session, tmp_path, monkeypatch):
    """A 1-shard partition holding >= 4 MiB of html still reads one
    block per cpu (4 here), so the session's cores share its parse."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from zhtml_ray.stages.manifest import run_partitioned

    para = "<p>" + "plain words of a long page " * 40 + "</p>"
    shard = str(tmp_path / "big.parquet")
    pq.write_table(pa.table({
        "url": [f"http://big/{i}" for i in range(40)],
        "html": [f"<html><body><main><h1>page {i}</h1>{para * 100}"
                 "</main></body></html>".encode() for i in range(40)]}),
        shard)
    plans = _executed_plans(monkeypatch)
    out_dir = str(tmp_path / "out")
    assert run_partitioned([shard], out_dir, group_size=1,
                           overlap=1)["rows"] == 40
    m = json.load(open(os.path.join(out_dir, "_manifests",
                                    "part-000000.json")))
    assert m["footer_html_bytes"] >= 4 * 1024 * 1024
    assert m["read_blocks"] == 4
    [plan] = plans
    assert "ReadParquet->SplitBlocks(4)" in plan
    assert len(glob.glob(os.path.join(m["output_dir"], "*.parquet"))) == 4


def test_read_plan_block_count_and_order(ray_session, tmp_path):
    """One block per file, unless fewer files than cpus hold more
    ``target_min_block_size`` blocks of html (a block per cpu at most),
    sized from the footers' uncompressed html bytes; the file with the
    most html is read first."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from zhtml_ray.stages.skew import read_plan

    def shard(name, rows, size):
        f = str(tmp_path / f"{name}.parquet")
        pq.write_table(pa.table({
            "url": [f"http://{name}/{i}" for i in range(rows)],
            "html": [f"{name}{i}".encode().ljust(size, b"x")
                     for i in range(rows)]}), f)
        return f, pq.read_metadata(f)

    mib = 1024 * 1024
    small = [shard(f"s{i}", 10 + i, 10_000) for i in range(3)]
    giant = shard("g", 3, mib + 1000)
    plan = read_plan(small + [giant, shard("e", 0, 0)])
    assert plan["read_blocks"] == 5
    assert 3 * mib + 330_000 < plan["footer_html_bytes"] < 3.5 * mib
    assert [os.path.basename(f) for f in plan["files"]] == [
        "g.parquet", "s2.parquet", "s1.parquet", "s0.parquet", "e.parquet"]
    assert read_plan(small)["read_blocks"] == 3
    assert read_plan([giant])["read_blocks"] == 3
    assert read_plan([giant, giant])["read_blocks"] == 4


def test_registry_pages_entry_fuses_one_read_task_per_file(
        ray_session, tmp_path, monkeypatch):
    """A registry pages entry reads through the planned pages reader
    (``sources/pages.read_pages``): over 3 small shards, the read and
    ``LinksBatch`` run as ONE fused operator of one task per file."""
    import re

    from zhtml_ray.pipelines import extract, golden
    from zhtml_ray.pipelines.queries import queries
    from zhtml_ray.sources.pages import write_pages_dataset

    pages = str(tmp_path / "pages")
    assert len(write_pages_dataset(pages, 150, rows_per_file=50)) == 3
    monkeypatch.setattr(extract, "pages_dir_for", lambda sf_dir: pages)
    monkeypatch.setattr(golden, "ensure_golden", lambda *a: None)
    plans = _executed_plans(monkeypatch)
    st = queries()["links"](str(tmp_path)).materialize().stats()
    [plan] = plans
    assert [op for op in plan if op.startswith("ReadParquet")] == [
        "ReadParquet->MapBatches(LinksBatch)"]
    assert re.search(r"ReadParquet->MapBatches\(LinksBatch\): "
                     r"(\d+) tasks executed", st).group(1) == "3"


def test_skew_routing_matches_unrouted(ray_session, tmp_path):
    from zhtml_ray.sources.pages import write_pages_dataset
    from zhtml_ray.stages.skew import extract_with_skew_routing
    from zhtml_ray.pipelines.extract import extract_pages
    import ray.data as rd

    out = str(tmp_path / "pages")
    # 100 normal docs + 2 "mega" docs (small threshold makes them giants)
    write_pages_dataset(out, 100, rows_per_file=50, mega_docs=2)
    routed = extract_with_skew_routing(out)
    plain = extract_pages(
        rd.read_parquet(out, columns=["url", "html", "lang"]))
    a = {r["url"]: r["extracted_text"] for r in routed.take_all()}
    b = {r["url"]: r["extracted_text"] for r in plain.take_all()}
    assert a == b
    assert len(a) == 102


def test_job_cli_resume_flow(shards, ray_session, tmp_path, capsys):
    """The `python -m zhtml_ray.job` CLI: fresh run → complete; rerun
    without --resume → refused; with --resume → no-op completion. Run
    in-process (main() must reuse — and NOT tear down — the session)."""
    import json as _json
    import ray
    from zhtml_ray.job import main

    out = str(tmp_path / "out")
    rc = main(["--input", shards[0].rsplit("/", 1)[0], "--output", out,
               "--group-size", "3"])
    assert rc == 0
    s1 = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert s1["complete"] and s1["rows"] == 300

    # without --resume: refuse to clobber
    assert main(["--input", shards[0].rsplit("/", 1)[0],
                 "--output", out]) == 2

    # with --resume: everything already done, nothing recomputed
    rc = main(["--input", shards[0].rsplit("/", 1)[0], "--output", out,
               "--group-size", "3", "--resume"])
    assert rc == 0
    s2 = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert s2["complete"] and s2["partitions_ran"] == 0
    assert s2["checksum"] == s1["checksum"]
    assert ray.is_initialized()  # CLI must not kill the caller's session


@pytest.mark.parametrize("group_size", [-1, 0])
def test_group_size_below_one_is_refused(shards, tmp_path, capsys,
                                         group_size):
    """A group size < 1 plans no partitions (or crashes in range()):
    the job must refuse it loudly, not report an empty run complete."""
    from zhtml_ray.job import main
    from zhtml_ray.stages.manifest import run_partitioned

    out = tmp_path / "out"
    with pytest.raises(ValueError, match="group_size"):
        run_partitioned(shards, str(out), group_size=group_size)
    assert not (out / "_manifests" / "plan.json").exists()

    rc = main(["--input", shards[0].rsplit("/", 1)[0], "--output",
               str(tmp_path / "cli"), "--group-size", str(group_size)])
    assert rc == 2
    assert "--group-size" in capsys.readouterr().err
    assert not (tmp_path / "cli").exists()


def test_giant_document_completes(ray_session):
    """SURVEY.md §5.6: a multi-MB doc among small ones parses on its own
    block without OOM and yields nonempty extraction."""
    from zhtml_ray.sources.pages import gen_pages_table
    from zhtml_ray.pipelines.extract import extract_pages
    import ray.data as rd

    t = gen_pages_table(20, mega_docs=1)  # 1 × ~3.6 MB + 20 small
    ds = extract_pages(rd.from_arrow(t.select(["url", "html", "lang"])),
                       include_spans=False)
    out = ds.to_pandas()
    assert len(out) == 21
    assert out["ok"].all()
    giant = out[out["html_bytes"] > 1_000_000]
    assert len(giant) == 1 and giant["extracted_text"].str.len().iloc[0] > 1000


def test_error_histogram_from_manifests(shards, tmp_path):
    """Manifest-merged error histogram (zero re-parse) must equal the
    histogram computed by re-parsing the same shards."""
    from collections import Counter
    import pyarrow.parquet as pq
    from zhtml_ray.html.extract import extract_document
    from zhtml_ray.stages.manifest import (
        error_histogram_from_manifests, run_partitioned)

    out_dir = str(tmp_path / "out")
    run_partitioned(shards[:2], out_dir, group_size=1, overlap=1)
    got = error_histogram_from_manifests(out_dir)

    want: Counter = Counter()
    for shard in shards[:2]:
        t = pq.read_table(shard, columns=["html"])
        for h in t["html"].to_pylist():
            want.update(e["code"] for e in extract_document(h or b"")["errors"])
    assert got == dict(sorted(want.items()))
    assert sum(got.values()) > 0


def _hostile_pages() -> list[tuple[str, bytes]]:
    """Small hostile pages (parse errors of many codes) and the empty,
    whitespace-only, script-only, one-word and non-ASCII corners."""
    def page(body, head=""):
        return (f"<!DOCTYPE html><html><head>{head}</head><body>{body}"
                "</body></html>").encode()
    return [
        ("http://h/deep", page("<div>" * 300 + "deep text" + "</div>" * 90)),
        ("http://h/fmt", page("<div><table>" + "x<b><i>" * 150
                              + "</b>y<td>" * 40)),
        ("http://h/ents", page(" ".join(["&amp;", "&notin;", "&eacute",
                                         "&#0;", "&#x110000;",
                                         "&ampersand"] * 60))),
        ("http://h/bytes", b"<p>bytes: " + b"\xc3\x28\xff\xed\xa0\x80 " * 80),
        ("http://h/attrs", page("<div a=1 a=2 b=3 b=4>x</div>" * 50)),
        ("http://h/empty", b""),
        ("http://h/blank", page("   \n\t  ")),
        ("http://h/script", page("", "<script>var a = '<p>no</p>';</script>")),
        ("http://h/one", page("<p>word</p>")),
        ("http://h/utf8", page("<p>" + "γάμμα 日本語 finé\u3000naïve " * 20
                               + "</p>")),
    ]


def test_error_counts_on_hostile_shard(ray_session, tmp_path):
    """The manifest's error histogram (counted in Arrow) equals a count
    of every error code of the written rows and of a re-parse."""
    from collections import Counter

    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    from zhtml_ray.html.extract import extract_document
    from zhtml_ray.stages.manifest import run_partitioned

    docs = _hostile_pages()
    shards = []
    for i in range(2):  # two shards: counts merge across batches
        f = str(tmp_path / f"h{i}.parquet")
        pq.write_table(pa.table({"url": [u + str(i) for u, _ in docs],
                                 "html": [h for _, h in docs]}), f)
        shards.append(f)
    out_dir = str(tmp_path / "out")
    run_partitioned(shards, out_dir, group_size=2, overlap=1)
    [m] = [json.load(open(p)) for p in glob.glob(
        os.path.join(out_dir, "_manifests", "part-*.json"))]
    written = pads.dataset(out_dir + "/part-000000").to_table(
        columns=["errors"])["errors"].to_pylist()
    want = Counter(e["code"] for row in written for e in row)
    assert m["error_counts"] == dict(want)
    assert len(want) >= 5 and sum(want.values()) > 100
    reparse = Counter(e["code"] for _, h in docs
                      for e in extract_document(h)["errors"])
    assert m["error_counts"] == {c: 2 * n for c, n in reparse.items()}


def test_fused_band_rows_equal_collect_band_rows(ray_session, tmp_path):
    """The band rows the job reads from its materialized extraction
    (buckets computed in the extraction map) equal a separate
    ``collect_band_rows`` pass over the same docs: real hostile, empty
    and non-ASCII pages through ``_prepare_partition`` with and without
    --clean, and error rows and null texts fed straight in."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd
    from zhtml_ray.functions.dedup import (LSH_BUCKETS_COL,
                                           append_band_buckets,
                                           band_rows_from_blocks,
                                           collect_band_rows)
    from zhtml_ray.stages.manifest import _prepare_partition
    from zhtml_ray.stages.neardup import pin_lsh_config

    def rows(t):
        return sorted(zip(t["bucket"].to_pylist(), t["url"].to_pylist()))

    docs = _hostile_pages()
    files = []
    for i in range(3):
        f = str(tmp_path / f"b{i}.parquet")
        pq.write_table(pa.table({"url": [u + str(i) for u, _ in docs],
                                 "html": [h for _, h in docs]}), f)
        files.append(f)
    cfg = pin_lsh_config(str(tmp_path / "idx"))
    for clean in (False, True):
        prep = _prepare_partition(
            {"partition_id": 0, "input_files": files},
            str(tmp_path / f"out{clean}"),
            {"include_spans": False, "clean": clean}, cfg)
        docs_ds = prep["out"].map_batches(
            lambda b: b.drop_columns([LSH_BUCKETS_COL]),
            batch_format="pyarrow")
        want = collect_band_rows(docs_ds, cfg)
        assert want.num_rows == 3 * len(docs) * cfg["bands"]
        assert rows(prep["band_rows"]) == rows(want)

    t = pa.table({"url": ["e0", "e1", "n0", "d0", "d1"],
                  "extracted_text": pa.array(
                      ["", "", None, "same words here", "same words here"],
                      pa.large_string()),
                  "ok": [False, False, True, True, True]})
    fused = band_rows_from_blocks(rd.from_arrow(t).map_batches(
        append_band_buckets, fn_kwargs={"cfg": cfg},
        batch_format="pyarrow").materialize(), cfg)
    assert rows(fused) == rows(collect_band_rows(rd.from_arrow(t), cfg))
    with pytest.raises(ValueError, match="new_budget_rows"):
        band_rows_from_blocks(rd.from_arrow(t).map_batches(
            append_band_buckets, fn_kwargs={"cfg": cfg},
            batch_format="pyarrow").materialize(), cfg, budget_rows=100)


def test_band_rows_from_blocks_explodes_far_blocks_in_tasks(
        ray_session, tmp_path, monkeypatch):
    """A block held only on another node is exploded by a task next to
    it, not fetched: with every block reported elsewhere, one task runs
    per block and the band rows equal the in-process read's, row for
    row."""
    import pyarrow as pa
    import ray
    import ray.data as rd
    import ray.experimental
    from zhtml_ray.functions import dedup
    from zhtml_ray.stages import util
    from zhtml_ray.stages.neardup import pin_lsh_config

    cfg = pin_lsh_config(str(tmp_path / "idx"))
    t = pa.table({"url": [f"u{i}" for i in range(40)],
                  "extracted_text": [f"page {i % 7} body text {i}"
                                     for i in range(40)]})
    ds = rd.from_arrow(t).repartition(4).map_batches(
        dedup.append_band_buckets, fn_kwargs={"cfg": cfg},
        batch_format="pyarrow").materialize()
    here = dedup.band_rows_from_blocks(ds, cfg)

    class Spy:
        calls = 0
        fn = ray.remote(num_cpus=0)(dedup._block_band_rows)

        def remote(self, *args):
            Spy.calls += 1
            return self.fn.remote(*args)

    monkeypatch.setitem(util._ZERO_CPU_TASKS, dedup._block_band_rows, Spy())
    monkeypatch.setattr(ray.experimental, "get_object_locations",
                        lambda refs: {r: {"node_ids": ["another-node"]}
                                      for r in refs})
    far = dedup.band_rows_from_blocks(ds, cfg)
    assert Spy.calls == 4
    assert far.equals(here) and here.num_rows == 40 * cfg["bands"]


def test_neardup_write_marks_far_blocks_in_tasks(ray_session, tmp_path,
                                                monkeypatch):
    """A --neardup-index partition's block held only on another node is
    marked and written by a zero-CPU task next to it: with every block
    reported elsewhere, one task writes each block, and the written
    rows, schema and ``neardup_keep`` equal the in-process write's."""
    import copy

    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray
    import ray.experimental
    from zhtml_ray.stages import manifest, util
    from zhtml_ray.stages.neardup import pin_lsh_config

    docs = _hostile_pages()
    files = []
    for i in range(3):
        f = str(tmp_path / f"b{i}.parquet")
        pq.write_table(pa.table({"url": [u + str(i) for u, _ in docs],
                                 "html": [h for _, h in docs]}), f)
        files.append(f)
    cfg = pin_lsh_config(str(tmp_path / "idx"))
    prep = manifest._prepare_partition(
        {"partition_id": 0, "input_files": files}, str(tmp_path / "src"),
        {"include_spans": False, "clean": True}, cfg)
    n_blocks = len(util.block_refs(prep["out"]))
    assert n_blocks >= 2
    drop = pa.array([u + str(i) for i in range(3) for u, _ in docs[::3]])

    def finish(name):
        p = copy.copy(prep)
        p["final_dir"] = str(tmp_path / name)
        p["tmp_dir"] = p["final_dir"] + ".tmp"
        st = {}
        m = manifest._finish_partition(p, drop, st)
        assert st["write_s"] >= 0 and m["neardup"] is st
        t = pads.dataset(p["final_dir"]).to_table()
        assert len(glob.glob(p["final_dir"] + "/*.parquet")) == n_blocks
        return t.sort_by("url"), {k: m[k] for k in
                                  ("rows", "checksum", "error_counts")}

    here = finish("here")

    class Spy:
        calls = 0
        fn = ray.remote(num_cpus=0)(manifest._write_marked_block)

        def remote(self, *args):
            Spy.calls += 1
            return self.fn.remote(*args)

    monkeypatch.setitem(util._ZERO_CPU_TASKS, manifest._write_marked_block,
                        Spy())
    monkeypatch.setattr(ray.experimental, "get_object_locations",
                        lambda refs: {r: {"node_ids": ["another-node"]}
                                      for r in refs})
    far = finish("far")
    assert Spy.calls == n_blocks
    assert far[0].schema == here[0].schema
    assert far[0].schema.names[-1] == "neardup_keep"
    assert "_lsh_buckets" not in far[0].schema.names
    assert far[0].equals(here[0]) and far[1] == here[1]
    assert here[1]["rows"] == 3 * len(docs)
    assert far[0]["neardup_keep"].to_pylist() == [
        u not in set(drop.to_pylist()) for u in far[0]["url"].to_pylist()]


def test_zero_row_shard_partition_completes(ray_session, tmp_path):
    """An empty input parquet shard (legal; happens in real crawls) must
    complete its partition with an empty manifest — not crash on the
    missing output dir and poison --resume forever."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from zhtml_ray.stages.manifest import run_partitioned

    empty = str(tmp_path / "empty.parquet")
    pq.write_table(pa.table({
        "url": pa.array([], pa.string()),
        "html": pa.array([], pa.binary()),
        "lang": pa.array([], pa.string()),
        "warc_ts": pa.array([], pa.timestamp("us")),
        "text": pa.array([], pa.string()),
    }), empty)
    out_dir = str(tmp_path / "out")
    r = run_partitioned([empty], out_dir, group_size=1, overlap=1)
    assert r["complete"]
    assert r["rows"] == 0
    # second run resumes cleanly with nothing to do
    r2 = run_partitioned([empty], out_dir, group_size=1, overlap=1)
    assert r2["complete"] and r2["partitions_previously_done"] == 1
    # under --neardup-index too: no blocks, so no schema to type the
    # partition's (empty) band rows from
    nd_out = str(tmp_path / "nd_out")
    r3 = run_partitioned([empty], nd_out, group_size=1, overlap=1,
                         extract_kwargs={"neardup_index":
                                         str(tmp_path / "idx")})
    assert r3["complete"] and r3["rows"] == 0
    m = json.load(open(os.path.join(nd_out, "_manifests",
                                    "part-000000.json")))
    assert m["neardup"]["probed"] == 0


def test_resume_with_different_config_raises(shards, tmp_path):
    """A kill + rerun with different extraction flags must refuse to
    mix two semantic configs into one 'complete' output (the checksum
    cannot catch it — it only covers rows written under each config).
    Perf-only knobs and explicit-default configs must NOT refuse."""
    from zhtml_ray.stages.manifest import run_partitioned
    out_dir = str(tmp_path / "out")
    run_partitioned(shards[:4], out_dir, group_size=2, overlap=1,
                    fail_after=1, extract_kwargs={"include_spans": True})
    with pytest.raises(ValueError, match="different extraction config"):
        run_partitioned(shards[:4], out_dir, group_size=2, overlap=1,
                        extract_kwargs={"include_spans": False})
    # perf knob change + explicit-default == absent: legitimate resume
    r = run_partitioned(shards[:4], out_dir, group_size=2, overlap=1,
                        extract_kwargs={"batch_size": 16})
    assert r["complete"]


def test_resume_plan_predating_clean_key(shards, tmp_path):
    """A plan.json written BEFORE the 'clean' key existed must resume
    under the current code (missing key == default false, r4 advisor:
    raw-string tag compare broke --resume for every old output dir) —
    while a resume that actually flips clean still refuses."""
    import json

    from zhtml_ray.stages.manifest import run_partitioned
    out_dir = str(tmp_path / "out")
    run_partitioned(shards[:4], out_dir, group_size=2, overlap=1,
                    fail_after=1, extract_kwargs={"include_spans": True})
    plan_path = str(tmp_path / "out" / "_manifests" / "plan.json")
    with open(plan_path) as f:
        plan = json.load(f)
    cfg = json.loads(plan["extract_config"])
    assert "clean" in cfg
    del cfg["clean"]  # simulate a pre-r3 plan without the key
    plan["extract_config"] = json.dumps(cfg, sort_keys=True)
    with open(plan_path, "w") as f:
        json.dump(plan, f)

    with pytest.raises(ValueError, match="different extraction config"):
        run_partitioned(shards[:4], out_dir, group_size=2, overlap=1,
                        extract_kwargs={"include_spans": True,
                                        "clean": True})
    r = run_partitioned(shards[:4], out_dir, group_size=2, overlap=1,
                        extract_kwargs={"include_spans": True})
    assert r["complete"]


def test_partition_run_tolerates_missing_lang(ray_session, tmp_path):
    """Shards with only (url, html) — e.g. from read_html_files — must
    process, not crash on a hardcoded column list."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from zhtml_ray.stages.manifest import run_partitioned
    shard = str(tmp_path / "nolang.parquet")
    pq.write_table(pa.table({
        "url": ["http://a/1", "http://a/2"],
        "html": [b"<p>one doc</p>", b"<p>two docs</p>"],
    }), shard)
    out_dir = str(tmp_path / "out")
    r = run_partitioned([shard], out_dir, group_size=1, overlap=1)
    assert r["complete"] and r["rows"] == 2


def test_partition_run_mixed_schema_group(ray_session, tmp_path):
    """One partition grouping a (url, html) shard with a
    (url, html, lang) shard must process BOTH orders, null-filling
    lang for the shard that lacks it (r3 review: first-fragment
    schema inference crashed one order and dropped lang the other)."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    from zhtml_ray.stages.manifest import run_partitioned
    a = str(tmp_path / "a_nolang.parquet")
    b = str(tmp_path / "b_lang.parquet")
    pq.write_table(pa.table({
        "url": ["http://x/1"], "html": [b"<p>one</p>"]}), a)
    pq.write_table(pa.table({
        "url": ["http://x/2"], "html": [b"<p>two</p>"],
        "lang": ["en"]}), b)
    out_dir = str(tmp_path / "out")
    r = run_partitioned([a, b], out_dir, group_size=2, overlap=1)
    assert r["complete"] and r["rows"] == 2
    got = pads.dataset(str(tmp_path / "out" / "part-000000")).to_table()
    langs = dict(zip(got["url"].to_pylist(), got["lang"].to_pylist()))
    assert langs == {"http://x/1": None, "http://x/2": "en"}


def test_clean_stage_job(shards, tmp_path):
    """--clean appends (clean_text, n_kept, clean_keep) per row without
    dropping rows, the config pin refuses a mismatched resume, and a
    matching resume completes the run."""
    import pyarrow.dataset as pads
    import pytest
    from zhtml_ray.stages.manifest import run_partitioned
    out_dir = str(tmp_path / "clean_out")

    r1 = run_partitioned(shards, out_dir, group_size=2, overlap=1,
                         fail_after=1,
                         extract_kwargs={"include_spans": False,
                                         "clean": True})
    assert not r1["complete"]

    # resume with the clean flag dropped must refuse, not mix configs
    with pytest.raises(ValueError, match="different extraction config"):
        run_partitioned(shards, out_dir, group_size=2, overlap=1,
                        extract_kwargs={"include_spans": False})

    r2 = run_partitioned(shards, out_dir, group_size=2, overlap=2,
                         extract_kwargs={"include_spans": False,
                                         "clean": True})
    assert r2["complete"]
    assert r2["rows"] == 300  # no row drops: lineage invariant holds

    dset = pads.dataset([p for p in glob.glob(out_dir + "/part-*/*.parquet")])
    names = dset.schema.names
    assert {"clean_text", "n_kept", "clean_keep"} <= set(names)
    t = dset.to_table(columns=["clean_keep", "n_kept", "clean_text"])
    kept = t.filter(t["clean_keep"])
    assert 0 < kept.num_rows < t.num_rows  # a real filter, not a constant
    # every kept row has >= 3 surviving lines by construction
    import pyarrow.compute as pc
    assert pc.min(kept["n_kept"]).as_py() >= 3


def _neardup_shards(tmp_path) -> list[str]:
    """6 single-doc-ish shards -> 3 partitions (group_size=2) with
    planted duplicates: a cross-partition twin, a within-partition
    twin pair, and a later twin of the within-pair SURVIVOR (only
    visible if the survivor was appended to the index)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    text_t = " ".join(f"alpha bravo charlie delta echo {i}"
                      for i in range(12))
    text_s = " ".join(f"foxtrot golf hotel india juliet {i}"
                      for i in range(12))

    def page(txt):
        return f"<html><body><p>{txt}</p></body></html>".encode()

    def uniq(i):
        # genuinely distinct texts: every shingle carries doc id i
        return " ".join(f"w{i}x{j} y{i}z{j} q{i}r{j}"
                        for j in range(20))

    rows = [
        # partition 0 (shards 0,1)
        [("http://p0/base-t", page(text_t)),
         ("http://p0/u0", page(uniq(0)))],
        [("http://p0/u1", page(uniq(1)))],
        # partition 1 (shards 2,3): cross-partition dup of text_t +
        # a within-partition twin pair on text_s
        [("http://p1/dup-t", page(text_t)),
         ("http://p1/twin-a", page(text_s))],
        [("http://p1/twin-b", page(text_s)),
         ("http://p1/u2", page(uniq(2)))],
        # partition 2 (shards 4,5): twin of the p1 SURVIVOR (twin-a)
        [("http://p2/dup-s", page(text_s)),
         ("http://p2/u3", page(uniq(3)))],
        [("http://p2/u4", page(uniq(4)))],
    ]
    shards = []
    for i, docs in enumerate(rows):
        f = str(tmp_path / f"nd-{i:02d}.parquet")
        pq.write_table(pa.table({
            "url": [u for u, _ in docs],
            "html": [h for _, h in docs]}), f)
        shards.append(f)
    return shards


def test_neardup_index_job_lifecycle(ray_session, tmp_path):
    """--neardup-index end-to-end: probe -> mark -> append across
    sequential partitions, kill/resume determinism, crash-after-append
    recovery, and the index-config pin."""
    import pyarrow.dataset as pads
    import pytest
    from zhtml_ray.stages.manifest import run_partitioned
    from zhtml_ray.stages.neardup import pin_lsh_config

    shards = _neardup_shards(tmp_path)
    out_dir = str(tmp_path / "out")
    idx = str(tmp_path / "lsh_index")

    def keep_map(odir):
        dset = pads.dataset(
            sorted(glob.glob(odir + "/part-*/*.parquet")))
        t = dset.to_table(columns=["url", "neardup_keep"])
        return dict(zip(t["url"].to_pylist(),
                        t["neardup_keep"].to_pylist()))

    # kill after partition 0, then resume to completion
    r1 = run_partitioned(shards, out_dir, group_size=2, overlap=1,
                         fail_after=1,
                         extract_kwargs={"include_spans": False,
                                         "neardup_index": idx})
    assert not r1["complete"]
    r2 = run_partitioned(shards, out_dir, group_size=2, overlap=2,
                         extract_kwargs={"include_spans": False,
                                         "neardup_index": idx})
    assert r2["complete"] and r2["rows"] == 10  # append-only: no drops

    keeps = keep_map(out_dir)
    assert keeps["http://p0/base-t"]            # first sighting keeps
    assert not keeps["http://p1/dup-t"]         # cross-partition dup
    assert keeps["http://p1/twin-a"]            # within-pair min keeps
    assert not keeps["http://p1/twin-b"]
    assert not keeps["http://p2/dup-s"]         # dup of APPENDED twin-a
    assert all(keeps[u] for u in keeps if "/u" in u)  # uniques keep

    # each partition appended at most one run, at the index root, sorted
    # by bucket
    import pyarrow.parquet as pq
    from zhtml_ray.stages.neardup import job_tag
    tag = job_tag(out_dir)
    runs = glob.glob(os.path.join(idx, "**", "*.parquet*"), recursive=True)
    assert sorted(runs) == sorted(
        os.path.join(idx, f"part-{tag}{pid:06d}.parquet")
        for pid in range(3) if json.load(open(os.path.join(
            out_dir, "_manifests", f"part-{pid:06d}.json")))
        ["neardup"]["appended"])
    for f in runs:
        buckets = pq.read_table(f)["bucket"].to_pylist()
        assert buckets == sorted(buckets)

    # manifest records the stage lineage
    m1 = json.load(open(os.path.join(out_dir, "_manifests",
                                     "part-000001.json")))
    nd = m1["neardup"]
    assert nd["probed"] == 4 and nd["dropped_index"] == 1
    assert nd["dropped_within"] == 1 and nd["appended"] == 2
    assert all(nd[k] >= 0 for k in ("hash_s", "probe_s", "append_s"))

    # crash-after-append recovery: wipe partition 1's manifest+output
    # but LEAVE its index files (the mid-crash state); the rerun must
    # clean them pre-probe and converge to the identical keep map
    os.remove(os.path.join(out_dir, "_manifests", "part-000001.json"))
    import shutil
    shutil.rmtree(os.path.join(out_dir, "part-000001"))
    stale = glob.glob(os.path.join(idx, f"part-{tag}000001.parquet"))
    assert stale  # the crashed partition DID append
    r3 = run_partitioned(shards, out_dir, group_size=2, overlap=1,
                         extract_kwargs={"include_spans": False,
                                         "neardup_index": idx})
    assert r3["complete"]
    m1b = json.load(open(os.path.join(out_dir, "_manifests",
                                      "part-000001.json")))
    assert m1b["neardup"]["stale_files_cleaned"] == len(stale)
    assert keep_map(out_dir) == keeps

    # a fresh single-shot run over a fresh index agrees exactly
    out2, idx2 = str(tmp_path / "fresh"), str(tmp_path / "lsh2")
    run_partitioned(shards, out2, group_size=2, overlap=1,
                    extract_kwargs={"include_spans": False,
                                    "neardup_index": idx2})
    assert keep_map(out2) == keeps

    # the index config is pinned: mismatched params refuse loudly
    with pytest.raises(ValueError, match="own parameters"):
        pin_lsh_config(idx, {"bands": 16})


def test_clean_and_neardup_compose(ray_session, tmp_path):
    """--clean and --neardup-index together: both column families
    appear, rows == inputs holds, and the config pin covers both."""
    import pyarrow.dataset as pads
    import pytest
    from zhtml_ray.stages.manifest import run_partitioned

    shards = _neardup_shards(tmp_path)
    out_dir = str(tmp_path / "out")
    idx = str(tmp_path / "idx")
    r = run_partitioned(shards, out_dir, group_size=2, overlap=1,
                        extract_kwargs={"include_spans": False,
                                        "clean": True,
                                        "neardup_index": idx})
    assert r["complete"] and r["rows"] == 10
    dset = pads.dataset(sorted(glob.glob(out_dir + "/part-*/*.parquet")))
    names = set(dset.schema.names)
    assert {"clean_text", "clean_keep", "neardup_keep"} <= names
    t = dset.to_table(columns=["url", "neardup_keep"])
    keeps = dict(zip(t["url"].to_pylist(),
                     t["neardup_keep"].to_pylist()))
    assert not keeps["http://p1/dup-t"] and keeps["http://p0/base-t"]

    # resume missing either stage flag must refuse
    with pytest.raises(ValueError, match="different extraction config"):
        run_partitioned(shards, out_dir, group_size=2, overlap=1,
                        extract_kwargs={"include_spans": False,
                                        "clean": True})


def test_neardup_output_schema_unchanged(ray_session, tmp_path):
    """With and without --clean, a --neardup-index run writes the
    schema of the same run without the index plus ``neardup_keep``
    last: same columns, same order, no band-bucket column left."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    from zhtml_ray.functions.dedup import LSH_BUCKETS_COL
    from zhtml_ray.stages.manifest import run_partitioned

    shards = _neardup_shards(tmp_path)

    def schema(odir):
        return pads.dataset(sorted(glob.glob(
            odir + "/part-*/*.parquet"))).schema.remove_metadata()

    for clean in (False, True):
        kw = {"include_spans": False, "clean": clean}
        plain, nd = (str(tmp_path / f"{n}{clean}") for n in ("plain", "nd"))
        run_partitioned(shards, plain, group_size=2, overlap=2,
                        extract_kwargs=kw)
        run_partitioned(shards, nd, group_size=2, overlap=2,
                        extract_kwargs=dict(
                            kw, neardup_index=str(tmp_path / f"i{clean}")))
        got = schema(nd)
        assert got == schema(plain).append(
            pa.field("neardup_keep", pa.bool_()))
        assert LSH_BUCKETS_COL not in got.names
        assert ("clean_keep" in got.names) == clean


def test_neardup_two_jobs_share_one_index(ray_session, tmp_path):
    """Two different jobs appending into ONE shared index must not
    clobber each other's partition files: job B's partition-0 crash
    cleanup is namespaced by job tag, so job A's partition-0 appends
    survive — and job B's docs dedup against job A's appends."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pyarrow.dataset as pads
    from zhtml_ray.stages.manifest import run_partitioned

    text = " ".join(f"shared corpus words {i} x{i}y" for i in range(15))

    def shard(path, url, txt):
        pq.write_table(pa.table({
            "url": [url],
            "html": [f"<html><body><p>{txt}</p></body></html>"
                     .encode()]}), path)
        return path

    a = shard(str(tmp_path / "a.parquet"), "http://a/doc", text)
    b = shard(str(tmp_path / "b.parquet"), "http://b/doc", text)
    idx = str(tmp_path / "idx")

    ra = run_partitioned([a], str(tmp_path / "out_a"), group_size=1,
                         overlap=1,
                         extract_kwargs={"include_spans": False,
                                         "neardup_index": idx})
    assert ra["complete"]
    rb = run_partitioned([b], str(tmp_path / "out_b"), group_size=1,
                         overlap=1,
                         extract_kwargs={"include_spans": False,
                                         "neardup_index": idx})
    assert rb["complete"]

    def keep(odir):
        import glob as g
        t = pads.dataset(sorted(g.glob(odir + "/part-*/*.parquet"))) \
            .to_table(columns=["url", "neardup_keep"])
        return dict(zip(t["url"].to_pylist(),
                        t["neardup_keep"].to_pylist()))

    # job A's doc survived (fresh index); job B's twin was caught
    # against job A's append — which job B's own partition-0 cleanup
    # must NOT have deleted
    assert keep(str(tmp_path / "out_a"))["http://a/doc"]
    assert not keep(str(tmp_path / "out_b"))["http://b/doc"]


def test_job_cli_compact_index_mode(ray_session, tmp_path, capsys):
    """`--compact-index DIR` maintenance mode: compacts and prints
    stats without touching --input/--output; bare invocation without
    either mode refuses."""
    import json as _json
    import pyarrow as pa
    import ray.data as rd
    from zhtml_ray.functions.dedup import append_lsh_index, build_lsh_index
    from zhtml_ray.job import main

    idx = str(tmp_path / "idx")
    t = pa.table({"doc_id": pa.array([1], pa.int64()),
                  "text": pa.array(["alpha beta gamma delta words"])})
    build_lsh_index(rd.from_arrow(t), idx)
    append_lsh_index(rd.from_arrow(t), idx)
    assert main(["--compact-index", idx]) == 0
    stats = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["files_after"] <= stats["files_before"]
    assert main([]) == 2


def _keep_rows(odir) -> list:
    """(partition dir, url, neardup_keep) of every output row, sorted."""
    import pyarrow.dataset as pads
    rows = []
    for d in sorted(glob.glob(os.path.join(odir, "part-*"))):
        t = pads.dataset(sorted(glob.glob(d + "/*.parquet"))) \
            .to_table(columns=["url", "neardup_keep"])
        rows += [(os.path.basename(d), u, k) for u, k in
                 zip(t["url"].to_pylist(), t["neardup_keep"].to_pylist())]
    return sorted(rows)


def _index_contents(idx, tag) -> dict:
    """Index-relative run name (job tag stripped) -> sorted rows."""
    import pyarrow.parquet as pq
    out = {}
    for f in glob.glob(os.path.join(idx, "**", "*.parquet"),
                       recursive=True):
        t = pq.read_table(f)
        name = os.path.relpath(f, idx).replace(tag, "")
        out[name] = sorted(zip(*(t[c].to_pylist() for c in t.column_names)))
    return out


def test_neardup_epoch_sizes_agree(ray_session, tmp_path):
    """--overlap is the near-dup epoch size: one-shard partitions under
    epochs of 1, 2, 3 and 4 (twin-a/twin-b in one epoch at 2, split at
    3) give identical keep maps and index contents, and each manifest
    names the pids that shared its snapshot."""
    from zhtml_ray.stages.manifest import run_partitioned
    from zhtml_ray.stages.neardup import job_tag

    shards = _neardup_shards(tmp_path)
    results = {}
    for overlap in (1, 2, 3, 4):
        out_dir = str(tmp_path / f"out{overlap}")
        idx = str(tmp_path / f"idx{overlap}")
        r = run_partitioned(shards, out_dir, group_size=1, overlap=overlap,
                            extract_kwargs={"include_spans": False,
                                            "neardup_index": idx})
        assert r["complete"] and r["rows"] == 10
        ms = [json.load(open(p)) for p in sorted(glob.glob(
            os.path.join(out_dir, "_manifests", "part-*.json")))]
        assert [m["neardup"]["epoch_pids"] for m in ms] == \
            [list(range(p - p % overlap, min(p - p % overlap + overlap, 6)))
             for p in range(6)]
        # the first epoch scans an empty index; every later one reads
        # files
        assert all(m["neardup"]["index_files_read"] == 0
                   for m in ms[:overlap])
        assert all(m["neardup"]["index_files_read"] > 0
                   and m["neardup"]["index_bytes_read"] > 0
                   for m in ms[overlap:])
        assert all(m["neardup"]["write_s"] >= 0 for m in ms)
        results[overlap] = (_keep_rows(out_dir),
                            _index_contents(idx, job_tag(out_dir)))
    assert results[1] == results[2] == results[3] == results[4]
    keeps = {u: k for _, u, k in results[1][0]}
    assert keeps["http://p0/base-t"] and not keeps["http://p1/dup-t"]
    assert keeps["http://p1/twin-a"] and not keeps["http://p1/twin-b"]
    assert not keeps["http://p2/dup-s"]
    assert all(keeps[u] for u in keeps if "/u" in u)


def test_neardup_job_runs_one_execution_per_partition(ray_session, tmp_path,
                                                     monkeypatch, capsys):
    """A 2-partition ``--clean --neardup-index`` job at ``--overlap 2``
    against a populated index runs exactly 2 Ray Data executions, its
    concurrent extractions: the band rows, the index scan and the marked
    write run without one (the design before ran 5: 2 extractions, 1
    scan, 2 mark+write)."""
    from zhtml_ray.job import main

    shards = _neardup_shards(tmp_path)
    idx = str(tmp_path / "idx")
    assert main(["--input", shards[0], "--output", str(tmp_path / "prev"),
                 "--clean", "--neardup-index", idx]) == 0
    runs = _executed_plans(monkeypatch)
    out_dir = str(tmp_path / "out")
    assert main(["--input", str(tmp_path / "nd-*.parquet"),
                 "--output", out_dir, "--group-size", "3", "--overlap", "2",
                 "--clean", "--neardup-index", idx]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["rows"] \
        == 10
    ms = [json.load(open(p)) for p in sorted(glob.glob(
        os.path.join(out_dir, "_manifests", "part-*.json")))]
    assert [m["neardup"]["epoch_pids"] for m in ms] == [[0, 1], [0, 1]]
    assert len(runs) == 2
    assert all(m["neardup"]["index_files_read"] > 0 for m in ms)


def test_neardup_epoch_chain_survives(ray_session, tmp_path):
    """C collides only with its epoch-mate B, and B drops against the
    index: C survives, as it does when B and C run one after the other
    (B's rows never reach the index). Without the indexed A, B survives
    and C drops against it."""
    import shutil

    import pyarrow as pa
    from zhtml_ray.stages.neardup import (append_partition_to_index,
                                          pin_lsh_config, resolve_epoch)

    def rows(*pairs):
        return pa.table({"bucket": pa.array([b for b, _ in pairs],
                                            pa.int64()),
                         "url": pa.array([u for _, u in pairs])})

    base = str(tmp_path / "base")
    cfg = pin_lsh_config(base)
    append_partition_to_index(rows((1, "A")), base, 0, cfg, tag="old")
    parts = [(1, rows((1, "B"), (2, "B"))), (2, rows((2, "C"), (3, "C")))]

    def drops(idx, epochs):
        shutil.copytree(base, idx)
        return [sorted(d.to_pylist()) for e in epochs
                for d, _ in resolve_epoch(idx, cfg, e)]

    epoch = drops(str(tmp_path / "epoch"), [parts])
    assert epoch == drops(str(tmp_path / "seq"), [[p] for p in parts])
    assert epoch == [["B"], []]
    empty = str(tmp_path / "empty")
    pin_lsh_config(empty)
    assert [sorted(d.to_pylist()) for d, _ in
            resolve_epoch(empty, cfg, parts)] == [[], ["C"]]


def test_neardup_epoch_matches_semijoin_reference(ray_session, tmp_path):
    """Random band rows over a small bucket space (dense collisions,
    urls repeated across partitions and against the index): every epoch
    split resolves to the drop sets of the one-partition-at-a-time
    reference — a brute-force semi-join over every indexed row, the
    within-partition smallest-key rule, append of the survivors."""
    import shutil

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from zhtml_ray.stages.neardup import (append_partition_to_index,
                                          pin_lsh_config, resolve_epoch)

    rng = np.random.default_rng(7)

    def rows(n, urls):
        return pa.table({
            "bucket": pa.array(rng.integers(0, 60, n), pa.int64()),
            "url": pa.array([f"u{i}" for i in rng.integers(0, urls, n)])})

    base = str(tmp_path / "base")
    cfg = pin_lsh_config(base)
    append_partition_to_index(rows(12, 40), base, 0, cfg, tag="old")
    parts = [(pid, rows(int(rng.integers(0, 30)), 40))
             for pid in range(6)]

    def indexed_urls(idx) -> dict:
        # every run of the index: bucket -> urls
        out: dict = {}
        for f in glob.glob(os.path.join(idx, "*.parquet")):
            t = pq.read_table(f, columns=["bucket", "url"])
            for b, u in zip(t["bucket"].to_pylist(), t["url"].to_pylist()):
                out.setdefault(b, set()).add(u)
        return out

    def reference(idx):
        out = []
        for pid, band in parts:
            indexed = indexed_urls(idx)
            pairs = list(zip(band["bucket"].to_pylist(),
                             band["url"].to_pylist()))
            drops = {u for b, u in pairs if indexed.get(b, set()) - {u}}
            by_bucket: dict = {}
            for b, u in pairs:
                by_bucket.setdefault(b, set()).add(u)
            for us in by_bucket.values():
                drops |= us - {min(us)}
            survivors = band.filter(pa.array(
                [u not in drops for u in band["url"].to_pylist()]))
            append_partition_to_index(survivors, idx, pid, cfg)
            out.append(sorted(drops))
        return out

    ref_idx = str(tmp_path / "ref")
    shutil.copytree(base, ref_idx)
    ref = reference(ref_idx)
    n_keys = sum(len(set(b["url"].to_pylist())) for _, b in parts)
    assert 0 < sum(map(len, ref)) < n_keys  # drops and survivors both
    for size in (1, 2, 4, 6):
        idx = str(tmp_path / f"e{size}")
        shutil.copytree(base, idx)
        got = [sorted(d.to_pylist())
               for i in range(0, len(parts), size)
               for d, _ in resolve_epoch(idx, cfg, parts[i:i + size])]
        assert got == ref, size
        assert _index_contents(idx, "") == _index_contents(ref_idx, "")


def test_neardup_same_url_in_two_partitions_of_one_epoch(ray_session,
                                                          tmp_path):
    """One url in two partitions of one epoch is resolved per
    partition: the second copy's only collision is with its own url
    (a self-match), so both copies keep, as sequentially."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from zhtml_ray.stages.manifest import run_partitioned

    text = " ".join(f"recrawled page words {i} k{i}v" for i in range(15))
    other = " ".join(f"w{j}x y{j}z other page" for j in range(20))
    shards = []
    for i, docs in enumerate([[("http://s/same", text)],
                              [("http://s/same", text),
                               ("http://s/other", other)]]):
        f = str(tmp_path / f"s{i}.parquet")
        pq.write_table(pa.table({
            "url": [u for u, _ in docs],
            "html": [f"<html><body><p>{t}</p></body></html>".encode()
                     for _, t in docs]}), f)
        shards.append(f)
    got = {}
    for overlap in (1, 2):
        out_dir = str(tmp_path / f"out{overlap}")
        run_partitioned(shards, out_dir, group_size=1, overlap=overlap,
                        extract_kwargs={"include_spans": False,
                                        "neardup_index": str(
                                            tmp_path / f"idx{overlap}")})
        got[overlap] = _keep_rows(out_dir)
    assert got[1] == got[2] == [
        ("part-000000", "http://s/same", True),
        ("part-000001", "http://s/other", True),
        ("part-000001", "http://s/same", True)]


def test_neardup_crash_mid_epoch_resumes_narrower(ray_session, tmp_path,
                                                  monkeypatch):
    """A crash after an overlap=4 epoch's appends but before its
    manifests leaves appends of several pids and no manifest. A resume
    under overlap=2 cleans every incomplete pid's appends before its
    first scan, records them per pid, and converges to a sequential
    run's keep map and index."""
    import pytest
    import zhtml_ray.functions.dedup as dedup
    import zhtml_ray.stages.manifest as manifest
    from zhtml_ray.stages.neardup import job_tag

    shards = _neardup_shards(tmp_path)
    out_dir, idx = str(tmp_path / "out"), str(tmp_path / "idx")
    kw = {"include_spans": False, "neardup_index": idx}
    tag = job_tag(out_dir)

    def crash(*a, **k):
        raise RuntimeError("killed before the manifests")

    with monkeypatch.context() as m:
        m.setattr(manifest, "_write_manifest", crash)
        with pytest.raises(RuntimeError, match="killed"):
            manifest.run_partitioned(shards, out_dir, group_size=1,
                                     overlap=4, extract_kwargs=kw)
    assert not manifest.completed_partitions(out_dir)
    stale = {pid: len(glob.glob(os.path.join(
        idx, f"part-{tag}{pid:06d}.parquet"))) for pid in range(6)}
    assert all(stale[p] for p in range(4)) and not stale[4] + stale[5]

    scanned = []
    hits = dedup.lsh_index_bucket_hits

    def spy(index_dir, *a, **k):
        scanned.append(sorted(os.path.basename(f) for f in glob.glob(
            os.path.join(index_dir, "*.parquet"))))
        return hits(index_dir, *a, **k)

    with monkeypatch.context() as m:
        m.setattr(dedup, "lsh_index_bucket_hits", spy)
        r = manifest.run_partitioned(shards, out_dir, group_size=1,
                                     overlap=2, extract_kwargs=kw)
    assert r["complete"] and r["partitions_ran"] == 6
    assert scanned[0] == []  # no pid's stale rows in the first snapshot
    recorded = {}
    for p in glob.glob(os.path.join(out_dir, "_manifests", "part-*.json")):
        nd = json.load(open(p))
        recorded[nd["partition_id"]] = nd["neardup"]["stale_files_cleaned"]
    assert recorded == stale

    ref_out, ref_idx = str(tmp_path / "ref"), str(tmp_path / "ref_idx")
    manifest.run_partitioned(shards, ref_out, group_size=1, overlap=1,
                             extract_kwargs={"include_spans": False,
                                             "neardup_index": ref_idx})
    assert _keep_rows(out_dir) == _keep_rows(ref_out)
    assert _index_contents(idx, tag) == \
        _index_contents(ref_idx, job_tag(ref_out))

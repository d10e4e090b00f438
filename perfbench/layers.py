"""The traced run: per-layer spans and counts, recorded from the
benchmark's own files around calls into each layer's public functions.

Spans ``{run_id, id, name, start, end, parent}`` and counts are kept in
memory and written as one JSON file when the run ends. The layers:

* kernel (in-process, single thread, the same docs): ``sniff_decode`` ⊂
  ``tokenize`` ⊂ ``parse`` ⊂ ``extract_document`` ⊂
  ``ParseExtractBatch``. Each call repeats the work of the ones inside
  it, so a layer's self time is its total minus the total of the call
  it wraps. ``tokenize()`` builds a token list while ``parse()``
  streams tokens, so the tokenizer / treebuilder split is approximate.
* Ray Data: ``ds.stats()`` blocks of read → ``extract_pages`` →
  materialize, then a write of the materialized rows (the job fuses
  the map and the write; the traced run splits them to time each).
* manifests of the jobs this run made; the C4/Gopher clean stage;
  the near-dup stage on the job's partitions against a fresh index copy.

Tracing overhead is the in-process kernel pass with spans minus the
same pass without them.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import time
import uuid

import pyarrow as pa
import pyarrow.parquet as pq


class Tracer:
    """In-memory spans and counts of one traced run."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex[:12]
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None):
        sid = len(self.spans)
        rec = {"run_id": self.run_id, "id": sid, "name": name,
               "start": time.perf_counter(), "end": None, "parent": parent}
        self.spans.append(rec)
        try:
            yield sid
        finally:
            rec["end"] = time.perf_counter()

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counts": self.counts}, f)


def dir_mb(d: str) -> float:
    return sum(os.path.getsize(os.path.join(r, f))
               for r, _, fs in os.walk(d) for f in fs) / 1e6


def _load_docs(files: list[str]) -> list[pa.Table]:
    return [pq.read_table(f, columns=["url", "html"]) for f in files]


@contextlib.contextmanager
def _wrapped(module, name: str, tr: Tracer, span: str, parent: list):
    """Time every call of ``module.name`` (looked up at call time by
    its callers) as a ``span`` child of the innermost open span on the
    ``parent`` stack."""
    orig = getattr(module, name)

    def timed(*a, **kw):
        with tr.span(span, parent[-1]) as s:
            parent.append(s)
            try:
                return orig(*a, **kw)
            finally:
                parent.pop()

    setattr(module, name, timed)
    try:
        yield parent
    finally:
        setattr(module, name, orig)


def kernel_layers(tr: Tracer, shards: list[pa.Table], root: int) -> dict:
    """Per doc, ``sniff_decode`` and ``tokenize`` as calls of their own;
    then ``ParseExtractBatch`` per shard with ``extract_document`` and
    the ``parse`` inside it timed as nested spans. Each shard also runs
    once with no spans (alternating which goes first), for the tracing
    overhead and the single-threaded kernel rate."""
    import zhtml_ray.html.extract as ex
    import zhtml_ray.stages.parse_extract as pe
    from zhtml_ray.html.encoding import sniff_decode
    from zhtml_ray.html.tokenizer import tokenize

    stage = pe.ParseExtractBatch()
    n_docs = html_bytes = text_bytes = 0
    untraced = traced = 0.0
    outs = []
    for k, t in enumerate(shards):
        docs = t.column("html").to_pylist()
        n_docs += len(docs)
        html_bytes += sum(len(h) for h in docs)
        for raw in docs:
            with tr.span("doc", root) as d:
                with tr.span("encoding", d):
                    sniff_decode(raw)
                with tr.span("tokenize", d):
                    toks, errs = tokenize(raw)
            tr.count("tokenizer.tokens", len(toks))
            tr.count("tokenizer.errors", len(errs))
            del toks
        for traced_pass in (k % 2 == 1, k % 2 == 0):
            t0 = time.perf_counter()
            if traced_pass:
                with tr.span("ParseExtractBatch", root) as b, \
                        _wrapped(pe, "extract_document", tr,
                                 "extract_document", [b]) as stack, \
                        _wrapped(ex, "parse", tr, "parse", stack):
                    o = stage(t)
                traced += time.perf_counter() - t0
            else:
                stage(t)
                untraced += time.perf_counter() - t0
        ok = o.column("ok").to_pylist()
        tr.count("parse_extract.failed_rows", len(ok) - sum(ok))
        tr.count("treebuilder.nodes", sum(o.column("n_nodes").to_pylist()))
        tr.count("extract.spans", sum(
            len(s) for s in o.column("spans").to_pylist()))
        text_bytes += sum(len(s.encode()) for s in
                          o.column("extracted_text").to_pylist())
        outs.append(o)
    enc, tok, prs, ext, batch = (tr.total(n) for n in (
        "encoding", "tokenize", "parse", "extract_document",
        "ParseExtractBatch"))
    return {
        "outs": outs, "kernel_s": untraced,
        "metrics": {
            "encoding.busy_s": (enc, "s"),
            "encoding.mb": (html_bytes / 1e6, "MB"),
            # approximate: tokenize() builds a list, parse() streams
            "tokenizer.self_s": (tok - enc, "s"),
            "tokenizer.tokens": (tr.counts["tokenizer.tokens"], "count"),
            "tokenizer.errors": (tr.counts["tokenizer.errors"], "count"),
            "treebuilder.self_s": (prs - tok, "s"),
            "treebuilder.nodes": (tr.counts["treebuilder.nodes"], "count"),
            "extract.self_s": (ext - prs, "s"),
            "extract.spans": (tr.counts["extract.spans"], "count"),
            "extract.yield": (text_bytes / html_bytes, "share"),
            "parse_extract.pack_s": (batch - ext, "s"),
            "parse_extract.failed_rows": (
                tr.counts["parse_extract.failed_rows"], "count"),
            "kernel.docs_per_s": (n_docs / untraced, "docs/s"),
            "trace.overhead_s": (traced - untraced, "s"),
            "trace.overhead_share": ((traced - untraced) / untraced,
                                     "share"),
        },
    }


def ray_layers(tr: Tracer, files: list[str], run_dir: str,
               root: int) -> dict:
    """Block stats of read → extract_pages → write, with each step
    materialized so that Ray Data cannot fuse two of them into one
    operator."""
    import ray.data as rd

    from zhtml_ray.pipelines.extract import extract_pages

    with tr.span("ray.read", root):
        pages = rd.read_parquet(files, columns=["url", "html", "lang"]) \
            .materialize()
    with tr.span("ray.map", root):
        mat = extract_pages(pages).materialize()
    with tr.span("ray.write", root):
        mat.write_parquet(os.path.join(run_dir, "ray-stats-out"))

    def blocks(stats, op: str) -> list:
        found = [b for s in [stats] + stats.parents
                 for name, bs in s.metadata.items() if op in name
                 for b in bs]
        if not found:
            raise RuntimeError(f"no {op} operator in the Ray Data stats")
        return found

    read = blocks(pages._plan.stats(), "ReadParquet")
    mapped = blocks(mat._plan.stats(), "ParseExtractBatch")
    write = blocks(mat._write_ds._plan.stats(), "Write")
    per_task: dict[tuple, float] = {}
    for kind, bs in (("read", read), ("map", mapped), ("write", write)):
        for b in bs:
            key = (kind, b.exec_stats.task_idx)
            per_task[key] = per_task.get(key, 0) + b.exec_stats.wall_time_s

    def busy(bs):
        return sum(b.exec_stats.wall_time_s for b in bs)

    return {
        "ray.read_s": (busy(read), "s"),
        "ray.map_s": (busy(mapped), "s"),
        "ray.write_s": (busy(write), "s"),
        "ray.tasks": (len(per_task), "count"),
        "ray.max_task_s": (max(per_task.values()), "s"),
        "skew.blocks": (len(read), "count"),
        "skew.max_block_mb": (max(b.size_bytes for b in read) / 1e6, "MB"),
    }


def manifest_layers(iters: list[dict]) -> dict:
    walls = [m["wall_s"] for it in iters for m in it["manifests"]]
    q = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    return {
        "manifest.partitions": (len(iters[0]["manifests"]), "count"),
        "manifest.partition_s.p50": (q[1], "s"),
        "manifest.partition_s.max": (max(walls), "s"),
        "manifest.output_mb": (statistics.median(
            it["output_mb"] for it in iters), "MB"),
    }


def clean_layers(tr: Tracer, outs: list[pa.Table], root: int) -> dict:
    from zhtml_ray.pipelines.ops_queries import append_clean_columns
    kept = rows = 0
    for o in outs:
        with tr.span("append_clean_columns", root):
            c = append_clean_columns(o)
        kept += sum(c.column("clean_keep").to_pylist())
        rows += c.num_rows
    return {"clean.busy_s": (tr.total("append_clean_columns"), "s"),
            "clean.keep_share": (kept / rows, "share")}


def neardup_layers(tr: Tracer, outs: list[pa.Table], index: str | None,
                   run_dir: str, root: int, group_size: int) -> dict:
    """``partition_neardup`` per job partition, in job order, against a
    fresh copy of the workload's index (an empty one when the workload
    has none), with ``lsh_index_probe`` and ``append_partition_to_index``
    timed inside it."""
    import ray.data as rd

    import zhtml_ray.functions.dedup as dedup
    import zhtml_ray.stages.neardup as nd

    idx = os.path.join(run_dir, "trace-index")
    shutil.rmtree(idx, ignore_errors=True)
    if index:
        shutil.copytree(index, idx)
    cfg = nd.pin_lsh_config(idx)
    probe = dedup.lsh_index_probe

    def materialized_probe(*a, **kw):
        # consumed twice by the caller; materialize so that the span
        # holds the probe's execution
        return probe(*a, **kw).materialize()

    totals = {"probed": 0, "dropped": 0, "index_parts_read": 0}
    parent = [root]
    dedup.lsh_index_probe = materialized_probe
    try:
        with _wrapped(dedup, "lsh_index_probe", tr, "lsh_index_probe",
                      parent), \
                _wrapped(nd, "append_partition_to_index", tr,
                         "append_partition_to_index", parent):
            for pid in range(0, len(outs), group_size):
                t = pa.concat_tables(o.select([cfg["key"], cfg["col"]])
                                     for o in outs[pid:pid + group_size])
                with tr.span("partition_neardup", root) as s:
                    parent[:] = [s]
                    _, st = nd.partition_neardup(
                        rd.from_arrow(t), idx, pid // group_size, cfg,
                        tag="trace")
                totals["probed"] += st["probed"]
                totals["dropped"] += (st["dropped_index"]
                                      + st["dropped_within"])
                totals["index_parts_read"] += st["index_parts_read"]
    finally:
        dedup.lsh_index_probe = probe
    n_files = sum(f.endswith(".parquet") for _, _, fs in os.walk(idx)
                  for f in fs)
    return {
        "neardup.busy_s": (tr.total("partition_neardup"), "s"),
        "neardup.probe_s": (tr.total("lsh_index_probe"), "s"),
        "neardup.append_s": (tr.total("append_partition_to_index"), "s"),
        "neardup.probed": (totals["probed"], "count"),
        "neardup.dropped": (totals["dropped"], "count"),
        "neardup.drop_share": (totals["dropped"] / totals["probed"],
                               "share"),
        "neardup.index_parts_read": (totals["index_parts_read"], "count"),
        "neardup.index_files": (n_files, "count"),
        "neardup.index_mb": (dir_mb(idx), "MB"),
    }


def traced_run(workload: str, fx: str, run_dir: str, index: str | None,
               iters: list[dict], cpus: int, group_size: int,
               trace_path: str) -> dict:
    """Every per-layer metric for one workload: ``{name: (value, unit)}``.
    ``iters`` are the untraced jobs this run already made."""
    from perfbench import fixtures

    tr = Tracer()
    files = fixtures.input_files(fx)
    shards = _load_docs(files)
    with tr.span(f"traced_run.{workload}") as root:
        k = kernel_layers(tr, shards, root)
        metrics = dict(k["metrics"])
        job_wall = statistics.median(it["wall_s"] for it in iters)
        metrics["engine.overhead_share"] = (
            1 - k["kernel_s"] / (job_wall * cpus), "share")
        metrics.update(ray_layers(tr, files, run_dir, root))
        metrics.update(manifest_layers(iters))
        metrics.update(clean_layers(tr, k["outs"], root))
        metrics.update(neardup_layers(tr, k["outs"], index, run_dir, root,
                                      group_size))
    metrics["trace.spans"] = (len(tr.spans), "count")
    tr.dump(trace_path)
    return metrics

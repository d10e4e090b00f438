"""Checkpoint / resume / lineage for partitioned runs (north rule:
"resumes mid-dataset without recomputing completed blocks; every
partition writes lineage records and checkpoint manifests").

Partition = a contiguous group of input shard files (deterministic ids
from the sorted input list). Each partition is one streaming Ray Data
sub-execution: read → extract → write to a temp dir → atomic rename →
manifest record. Its read gets one unsplit block per small shard
(``stages/skew.read_plan``, from the parquet footers), so Ray fuses
read → extract → [clean] → write into one task per input shard, which
writes one parquet file. On resume, completed partition ids are loaded and
their input shards are skipped BEFORE any read is issued. With
``--neardup-index`` a partition splits into a prepare half (extract +
MinHash band buckets in one fused map, materialized, then the band rows
read from its blocks) and a finish half (mark + write each block where
it lives, one parquet file per block) around one shared near-dup
resolve per epoch of ``overlap`` partitions (``_run_neardup_epochs``)
— one Ray Data execution per partition, the extraction; the index
scan, the resolve and the write run without one.

The manifest row doubles as lineage + metrics:
  {partition_id, input_files, rows, html_bytes, checksum,
   error_counts, wall_s, output_dir, read_blocks, footer_html_bytes}

read_blocks is the block count the partition's parquet reads requested
and footer_html_bytes the html column's uncompressed footer size they
were planned from (WARC shards are not counted).

checksum = sum of crc32(url || extracted_text) over rows (mod 2^64) —
order-insensitive, so any parallelism/partitioning that produces the
same per-url bytes yields the same checksum. The per-row crc is
computed inside the distributed parse tasks (row_crc column), so the
manifest scan only reads O(rows)-sized columns, never the text.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time

from concurrent.futures import ThreadPoolExecutor


def partition_plan(input_files: list[str], group_size: int = 4) -> list[dict]:
    files = sorted(input_files)
    return [{"partition_id": i // group_size,
             "input_files": files[i:i + group_size]}
            for i in range(0, len(files), group_size)]


def _manifest_path(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, "_manifests", f"part-{pid:06d}.json")


def completed_partitions(out_dir: str) -> dict[int, dict]:
    out = {}
    for p in glob.glob(os.path.join(out_dir, "_manifests", "part-*.json")):
        try:
            with open(p) as f:
                m = json.load(f)
            out[m["partition_id"]] = m
        except (json.JSONDecodeError, KeyError, OSError):
            continue  # torn write → partition treated as incomplete
    return out


def _prepare_partition(part: dict, out_dir: str, extract_kwargs: dict,
                       nd_cfg: dict | None = None) -> dict:
    """First half of a partition: read → extract → [clean]. With
    ``nd_cfg`` (``--neardup-index``) the same fused map also appends
    each doc's LSH band buckets (``dedup.append_band_buckets``), the
    extraction is materialized, and its ``(bucket, key)`` band rows are
    read from the blocks (``dedup.band_rows_from_blocks``; ``hash_s``
    times that read), ready for the epoch's resolve
    (stages/neardup.py:resolve_epoch)."""
    from zhtml_ray.pipelines.extract import extract_pages
    from zhtml_ray.sources.pages import read_pages
    from zhtml_ray.stages.skew import read_plan

    pid = part["partition_id"]
    t0 = time.time()
    final_dir = os.path.join(out_dir, f"part-{pid:06d}")
    tmp_dir = final_dir + ".tmp"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    shutil.rmtree(final_dir, ignore_errors=True)

    # prune to the columns the stage consumes, tolerating shards
    # without the optional lang column — INCLUDING a mixed-schema
    # partition (r3 review ×2: a hardcoded list crashed url+html-only
    # shards, and first-fragment schema inference either crashed or
    # silently dropped lang when a partition mixed both shapes; Ray's
    # read_parquet cannot null-fill missing columns reliably, probed).
    # Files are grouped by their column subset — one read per shape —
    # and shapes missing an optional column null-fill it so every
    # partition emits ONE output schema.
    import pyarrow as pa
    import pyarrow.parquet as _pq

    by_shape: dict[tuple, list] = {}
    lang_type = None
    # crawl-native WARC shards mix freely with parquet shards in a
    # partition: they read through sources/warc.py and join the same
    # shape/null-fill machinery as a (url, html)-only shape
    warc_files = [f for f in part["input_files"]
                  if f.endswith((".warc", ".warc.gz"))]
    for f in part["input_files"]:
        if f.endswith((".warc", ".warc.gz")):
            continue
        meta = _pq.read_metadata(f)
        sch = meta.schema.to_arrow_schema()
        shape = tuple(c for c in ("url", "html", "lang")
                      if c in sch.names)
        by_shape.setdefault(shape, []).append((f, meta))
        if "lang" in sch.names and lang_type is None:
            lang_type = sch.field("lang").type
    want = tuple(dict.fromkeys(
        c for sh in list(by_shape) + ([("url", "html")] if warc_files else [])
        for c in sh))
    # the same footers plan each shape's read (stages/skew.read_plan,
    # read by sources/pages.read_pages): one unsplit block per small
    # shard, so read → extract → [clean] → [band buckets] → write fuse
    # into one task per file, and the file with the most html starts
    # first
    shaped = []
    read = {"read_blocks": 0, "footer_html_bytes": 0}
    for shape, fm in sorted(by_shape.items()):
        plan = read_plan(fm)
        read = {k: read[k] + plan[k] for k in read}
        shaped.append((shape, read_pages(plan, list(shape))))
    if warc_files:
        from zhtml_ray.sources.warc import read_warc
        shaped.append((("url", "html"), read_warc(warc_files).map_batches(
            lambda b: b.select(["url", "html"]), batch_format="pyarrow")))
    parts_ds = []
    for shape, d in shaped:
        missing = tuple(c for c in want if c not in shape)
        if missing:
            def fill(b, _miss=missing, _want=want, _lt=lang_type):
                for c in _miss:
                    b = b.append_column(
                        c, pa.nulls(b.num_rows,
                                    _lt if c == "lang" else pa.string()))
                return b.select(list(_want))
            d = d.map_batches(fill, batch_format="pyarrow")
        parts_ds.append(d)
    ds = parts_ds[0]
    if len(parts_ds) > 1:
        ds = ds.union(*parts_ds[1:])
    extract_kwargs = dict(extract_kwargs)
    clean = extract_kwargs.pop("clean", False)
    extract_kwargs.pop("neardup_index", None)
    out = extract_pages(ds, **extract_kwargs)
    if clean:  # job-CLI --clean: C4+Gopher columns appended per row
        from zhtml_ray.pipelines.ops_queries import append_clean_columns
        out = out.map_batches(append_clean_columns,
                              batch_format="pyarrow")
    prep = {"part": part, "t0": t0, "tmp_dir": tmp_dir,
            "final_dir": final_dir, "read": read}
    if nd_cfg is not None:
        # each doc's LSH band buckets are one more column of the same
        # fused extraction map; materialize, since the extraction is
        # consumed twice (band rows + final write) and must not
        # re-parse — partitions are the bounded unit (group_size
        # shards), so blocks fit the object store. The band rows are
        # then read straight from the blocks, with no second execution.
        from zhtml_ray.functions.dedup import (append_band_buckets,
                                               band_rows_from_blocks)
        out = out.map_batches(append_band_buckets,
                              fn_kwargs={"cfg": nd_cfg},
                              batch_format="pyarrow").materialize()
        prep["neardup_key"] = nd_cfg["key"]
        t1 = time.perf_counter()
        prep["band_rows"] = band_rows_from_blocks(out, nd_cfg)
        prep["hash_s"] = round(time.perf_counter() - t1, 3)
    prep["out"] = out
    return prep


def _write_marked_block(block, i: int, tmp_dir: str, key: str,
                        drop_keys) -> None:
    """Write one materialized block of a ``--neardup-index`` partition as
    ``tmp_dir/block-<i>.parquet``: the band-bucket column dropped and the
    append-only ``neardup_keep`` column last, so the written schema is
    the plain job's plus ``neardup_keep`` (rows == inputs preserved,
    stages/neardup.py)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from zhtml_ray.functions.dedup import LSH_BUCKETS_COL

    keep = pc.invert(pc.is_in(block[key], value_set=drop_keys))
    pq.write_table(block.drop_columns([LSH_BUCKETS_COL]).append_column(
        "neardup_keep", keep.combine_chunks()),
        os.path.join(tmp_dir, f"block-{i:06d}.parquet"))


def _finish_partition(prep: dict, drop_keys=None,
                      nd_stats: dict | None = None) -> dict:
    """Second half: write to a temp dir → atomic rename → lineage scan.
    Returns the manifest record; the caller writes it
    (``_write_manifest``). Without ``drop_keys`` the extraction is
    written by one ``write_parquet`` execution. With ``drop_keys`` (an
    Arrow array of the near-duplicate keys, ``--neardup-index``) the
    materialized extraction is marked and written block by block where
    each block lives (``util.at_blocks``: one parquet file per block, no
    Ray Data execution); ``nd_stats["write_s"]`` times that write."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    out, tmp_dir, final_dir = prep["out"], prep["tmp_dir"], prep["final_dir"]
    if drop_keys is not None:
        from zhtml_ray.stages.util import at_blocks, block_refs

        t0 = time.perf_counter()
        os.makedirs(tmp_dir, exist_ok=True)
        at_blocks([r for r, _ in block_refs(out)], _write_marked_block,
                  tmp_dir, prep["neardup_key"], drop_keys)
        nd_stats["write_s"] = round(time.perf_counter() - t0, 3)
    else:
        out.write_parquet(tmp_dir)
    # a ZERO-ROW partition (legal: an empty input shard) writes no files
    # and may not even create tmp_dir — it must still complete with an
    # empty manifest or --resume retries it forever
    os.makedirs(tmp_dir, exist_ok=True)
    os.replace(tmp_dir, final_dir)

    # lineage metrics from the written partition: column-pruned scan of
    # the small columns only (row_crc computed inside the parse tasks,
    # so extracted text is never re-read here — O(rows), not O(bytes))
    rows = 0
    checksum = 0
    html_bytes = 0
    err_counts: dict[str, int] = {}
    if glob.glob(os.path.join(final_dir, "*.parquet")):
        dset = pads.dataset(final_dir)
        # schema migration: partitions written before the errors-struct
        # change carry `error_codes: list<string>` instead of
        # `errors: list<struct<code,line,col>>` — --resume must still
        # scan them rather than crash on a missing field
        legacy = "errors" not in dset.schema.names
        err_col = "error_codes" if legacy else "errors"
        scan = dset.scanner(columns=["row_crc", err_col, "html_bytes"])
        for b in scan.to_batches():
            rows += b.num_rows
            checksum = (checksum + int(pc.sum(b.column(0)).as_py() or 0)) \
                & 0xFFFFFFFFFFFFFFFF
            flat = pc.list_flatten(b.column(1))
            codes = flat if legacy else pc.struct_field(flat, "code")
            vc = pc.value_counts(codes)
            for c, n in zip(vc.field("values").to_pylist(),
                            vc.field("counts").to_pylist()):
                err_counts[c] = err_counts.get(c, 0) + n
            html_bytes += int(pc.sum(b.column(2)).as_py() or 0)

    manifest = {
        "partition_id": prep["part"]["partition_id"],
        "input_files": prep["part"]["input_files"],
        "rows": rows,
        "html_bytes": html_bytes,
        "checksum": checksum,
        "error_counts": err_counts,
        "wall_s": round(time.time() - prep["t0"], 3),
        "output_dir": final_dir,
        **prep["read"],
    }
    if nd_stats is not None:
        manifest["neardup"] = nd_stats
    return manifest


def _write_manifest(out_dir: str, manifest: dict) -> None:
    mp = _manifest_path(out_dir, manifest["partition_id"])
    os.makedirs(os.path.dirname(mp), exist_ok=True)
    tmp = mp + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, mp)


def _run_one_partition(part: dict, out_dir: str, extract_kwargs: dict) -> dict:
    manifest = _finish_partition(
        _prepare_partition(part, out_dir, extract_kwargs))
    _write_manifest(out_dir, manifest)
    return manifest


def _run_neardup_epochs(todo: list[dict], todo_now: list[dict],
                        out_dir: str, extract_kwargs: dict,
                        epoch_size: int) -> list[dict]:
    """``--neardup-index`` partitions, ``epoch_size`` consecutive ones
    at a time: concurrent prepare (one fused extract + band-bucket
    execution each), one in-process ``resolve_epoch`` (one index scan,
    ascending-pid resolve, appends), concurrent block-local finish,
    then the manifests in ascending pid order — so a later pid is
    never complete while an earlier one is not. The drops equal a
    sequential run's for every ``epoch_size``. A partition's
    ``wall_s`` runs from its prepare to its finish, so it includes the
    epoch's shared resolve and any wait for its epoch-mates."""
    from zhtml_ray.stages.neardup import (clean_partition_files, job_tag,
                                          pin_lsh_config, resolve_epoch)

    index = extract_kwargs["neardup_index"]
    cfg = pin_lsh_config(index)
    tag = job_tag(out_dir)
    # every incomplete pid's appends go before the first scan: a crash
    # mid-epoch leaves appends of SEVERAL pids, and a resume under a
    # narrower epoch must not find a later pid's rows in its snapshot
    cleaned = {p["partition_id"]: clean_partition_files(
        index, p["partition_id"], tag) for p in todo}
    ran = []
    with ThreadPoolExecutor(max_workers=epoch_size) as pool:
        for i in range(0, len(todo_now), epoch_size):
            preps = list(pool.map(
                lambda p: _prepare_partition(p, out_dir, extract_kwargs,
                                             cfg),
                todo_now[i:i + epoch_size]))
            resolved = resolve_epoch(
                index, cfg, [(pr["part"]["partition_id"], pr["band_rows"])
                             for pr in preps], tag)
            for pr, (_, st) in zip(preps, resolved):
                st.update(hash_s=pr["hash_s"], stale_files_cleaned=cleaned[
                    pr["part"]["partition_id"]])
            manifests = list(pool.map(
                lambda a: _finish_partition(a[0], *a[1]),
                zip(preps, resolved)))
            for m in manifests:
                _write_manifest(out_dir, m)
            ran += manifests
    return ran


def run_partitioned(input_files: list[str], out_dir: str,
                    group_size: int = 4, overlap: int = 2,
                    extract_kwargs: dict | None = None,
                    fail_after: int | None = None) -> dict:
    """Resumable partitioned extraction run.

    ``overlap`` sub-executions run concurrently (each is itself a
    streaming pipeline, so this mainly hides per-execution setup);
    with ``neardup_index`` it is the near-dup epoch size.
    ``fail_after`` aborts after N newly completed partitions — test hook
    for the kill/resume test. Returns a summary dict."""
    if group_size < 1:
        # partition_plan would return no partitions (or crash on 0):
        # a "complete" run with 0 rows is a silent failure
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    os.makedirs(out_dir, exist_ok=True)
    extract_kwargs = extract_kwargs or {}
    # canonical tag of the SEMANTIC extraction config only, resolved
    # against defaults: the perf knob (batch_size) cannot change
    # output bytes and must not refuse a legitimate recovery resume
    # (e.g. rerun with a smaller batch size after an OOM);
    # explicit-default vs absent must compare equal (r3 review)
    neardup_index = extract_kwargs.get("neardup_index", None)
    if neardup_index:
        # overlap = epoch size: partition P's drops still equal a
        # sequential run's, which sees partitions 0..P-1's appends
        # (_run_neardup_epochs, stages/neardup.py:resolve_epoch)
        neardup_index = os.path.abspath(neardup_index)
        extract_kwargs = dict(extract_kwargs,
                              neardup_index=neardup_index)
    cfg_tag = json.dumps({
        "include_spans": extract_kwargs.get("include_spans", True),
        "thresholds": repr(extract_kwargs.get("thresholds", None)),
        "clean": bool(extract_kwargs.get("clean", False)),
        "neardup_index": neardup_index,
    }, sort_keys=True)
    # the plan is pinned on first run: a resume with a different
    # group_size must not re-number partitions, and a resume with a
    # DIFFERENT EXTRACTION CONFIG must not silently mix two semantic
    # configs into one "complete" output (r3 review — the checksum
    # cannot catch it, it only covers rows written under each config)
    plan_path = os.path.join(out_dir, "_manifests", "plan.json")
    if os.path.exists(plan_path):
        with open(plan_path) as f:
            stored = json.load(f)
        group_size = stored["group_size"]
        if sorted(input_files) != stored["input_files"]:
            raise ValueError(
                "resume with a different input file list than the original "
                f"run (see {plan_path}); use a fresh output dir")
        if "extract_config" not in stored:
            import logging
            logging.getLogger(__name__).warning(
                "plan.json at %s predates config pinning: cannot verify "
                "the resume uses the original extraction config",
                plan_path)
        else:
            # compare KEY-WISE with defaults for keys the stored tag
            # predates (e.g. "clean" added r3): an old plan without
            # the key must equal a new tag with the key at its default
            # — raw-string compare broke --resume for every pre-change
            # output dir (r4 advisor)
            stored_cfg = json.loads(stored["extract_config"])
            new_cfg = json.loads(cfg_tag)
            defaults = {"include_spans": True,
                        "thresholds": repr(None), "clean": False,
                        "neardup_index": None}
            keys = set(stored_cfg) | set(new_cfg)
            diff = {k for k in keys
                    if stored_cfg.get(k, defaults.get(k))
                    != new_cfg.get(k, defaults.get(k))}
            if diff:
                raise ValueError(
                    "resume with a different extraction config than the "
                    f"original run (keys {sorted(diff)}: "
                    f"{stored['extract_config']} != {cfg_tag}); "
                    "use a fresh output dir")
    else:
        os.makedirs(os.path.dirname(plan_path), exist_ok=True)
        tmp = plan_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"group_size": group_size,
                       "input_files": sorted(input_files),
                       "extract_config": cfg_tag}, f)
        os.replace(tmp, plan_path)
    plan = partition_plan(input_files, group_size)
    done = completed_partitions(out_dir)
    todo = [p for p in plan if p["partition_id"] not in done]

    ran = []
    if fail_after is not None:
        todo_now = todo[:fail_after]
    else:
        todo_now = todo
    if neardup_index and todo_now:
        ran = _run_neardup_epochs(todo, todo_now, out_dir, extract_kwargs,
                                  max(1, overlap))
    elif overlap > 1 and len(todo_now) > 1:
        with ThreadPoolExecutor(max_workers=overlap) as pool:
            ran = list(pool.map(
                lambda p: _run_one_partition(p, out_dir, extract_kwargs),
                todo_now))
    else:
        ran = [_run_one_partition(p, out_dir, extract_kwargs)
               for p in todo_now]
    all_done = completed_partitions(out_dir)
    return {
        "partitions_total": len(plan),
        "partitions_previously_done": len(done),
        "partitions_ran": len(ran),
        "partitions_done": len(all_done),
        "complete": len(all_done) == len(plan),
        "rows": sum(m["rows"] for m in all_done.values()),
        "checksum": sum(m["checksum"] for m in all_done.values())
                    & 0xFFFFFFFFFFFFFFFF,
        "wall_s_sum": round(sum(m["wall_s"] for m in all_done.values()), 3),
    }


def error_histogram_from_manifests(out_dir: str) -> dict[str, int]:
    """Global error-code histogram of a COMPLETED (or partial) run by
    merging the per-partition manifest `error_counts` — zero re-parse,
    zero data read (the at-scale form of the extract_error_histogram
    diagnostic: the counts were pre-aggregated inside the parse tasks
    and recorded as partition lineage)."""
    total: dict[str, int] = {}
    for m in completed_partitions(out_dir).values():
        for code, n in (m.get("error_counts") or {}).items():
            total[code] = total.get(code, 0) + int(n)
    return dict(sorted(total.items()))

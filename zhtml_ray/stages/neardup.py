"""Job-CLI incremental near-dup stage over an at-rest LSH index.

The 100-TB operational lifecycle (VERDICT r4 #2): each job partition
PROBES the at-rest MinHash/LSH index (functions/dedup.py:
build_lsh_index layout — ``(bucket, key)`` rows in flat parquet runs,
each sorted by bucket), marks colliding docs as near-duplicates, then
APPENDS the surviving docs' band rows as one more run so every later
partition (and every later job) sees them. Semantics are
candidate-level by design — the index stores hashes, never text, so
there is nothing to exact-verify against; an LSH band collision IS the
duplicate signal, exactly like the snapshot/incremental dedup
literature's first stage:

  * cross-partition: any band collision with an indexed key drops the
    probing doc (``neardup_keep = false``);
  * within-partition: docs also collide with EACH OTHER — the
    lexicographically-smaller key of every candidate pair survives
    (pairwise-canonical; deterministic and order-free).

Partitions run in EPOCHS of ``overlap`` consecutive pids
(stages/manifest.py:_run_neardup_epochs), in three phases:

  1. concurrent prepare: each partition runs ONE Ray Data execution,
     extract (+ clean) → MinHash → band buckets in one fused map
     (``dedup.append_band_buckets`` appends each doc's buckets as a
     ``fixed_size_list<int64>[bands]`` column), materialized; its
     ``(bucket, key)`` rows are then read straight from the
     materialized blocks (``dedup.band_rows_from_blocks`` over
     ``stages/util.at_blocks``: a block on the job process's node is
     read there zero-copy, a block held only on another node is
     exploded by a zero-CPU task next to it; no second execution, and
     no text leaves its node). The same rows feed the probe, the
     within-partition scan and the append;
  2. one in-process resolve (``resolve_epoch``): ONE scan over every
     run of the index for the union of the epoch's buckets
     (``dedup.lsh_index_bucket_hits``: the colliding index rows, at
     most two keys per bucket, no shuffle; the runs stream through
     one pyarrow scanner in the job process), then each partition in
     ascending pid order is resolved against that snapshot plus its
     earlier epoch-mates' survivors and appends its own survivors as
     one run;
  3. concurrent finish: each materialized block is marked (the bucket
     column dropped, so the written schema carries only
     ``neardup_keep`` more) and written as one parquet file where it
     lives (``at_blocks`` again: in the job process, or a zero-CPU
     task next to a far block) → rename; the manifests are then
     written in ascending pid order.

Each epoch thus runs its E extractions as concurrent Ray Data
executions and no other execution.

The manifest's ``neardup`` record times the steps: ``hash_s`` is the
time to collect the partition's band rows from its materialized blocks
(the MinHash itself runs inside the extraction tasks, so it is part of
the partition's extraction); ``probe_s`` is the epoch's shared scan
plus the partition's own resolve; ``append_s`` is the partition's own
index append; ``write_s`` is the block-local mark and write. Next to
them: ``index_parts_read`` and ``index_files_read`` (both the runs
the shared scan opened) and its ``index_bytes_read``, and
``epoch_pids``, the pids that shared one snapshot.

The stage is append-only on the data path (a ``neardup_keep`` bool
column, preserving the job CLI's rows == inputs manifest invariant —
the same contract as ``--clean``) and exactly-once on the index path:

  * a partition appends ONE DETERMINISTICALLY NAMED run
    (``<index>/part-<tag><pid>.parquet``), so a partition that crashed
    after appending but before its manifest wrote is wiped
    (``clean_partition_files``) and re-appended byte-identically on
    resume — the probe never sees the partition's own half-written
    rows;
  * index parameters are pinned in ``<index>/_lsh_config.json`` on
    first touch (``pin_lsh_config``; the plan.json config-pinning
    convention), and every index reader and writer in
    functions/dedup.py takes them from that file, never from its
    caller (``dedup.lsh_index_config``) — probing with different
    num_perm/bands/seed would silently miss every duplicate.

Partition order is the determinism boundary: partition P's drops must
equal those of a probe that sees partitions 0..P-1's appends. Inside an
epoch, ``resolve_epoch`` gets there without re-scanning (a key that
collides only with a DROPPED epoch-mate survives, since a dropped doc
is never appended), so ``neardup_keep`` is identical for every epoch
size. Every incomplete pid's appends are cleaned before the first
scan, so a crash mid-epoch under a wide epoch cannot leave a later
pid's rows in a narrower resume's snapshot.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq

DEFAULT_LSH_CONFIG = {
    "key": "url",
    "col": "extracted_text",
    "num_perm": 128,
    "bands": 32,
    "shingle_k": 3,
    "seed": 42,
}


def pin_lsh_config(index_dir: str, overrides: dict | None = None) -> dict:
    """The job's index parameters: those pinned in
    ``<index>/_lsh_config.json`` (verifying any ``overrides`` against
    them), or ``DEFAULT_LSH_CONFIG`` updated by ``overrides`` pinned on
    first touch (``dedup.lsh_index_config``). A mismatched override
    fails loudly, and a compaction that crashed mid-swap is restored
    (or refused) first, so a stranded index is never bootstrapped
    empty."""
    from zhtml_ray.functions.dedup import lsh_index_config

    return lsh_index_config(index_dir, DEFAULT_LSH_CONFIG, overrides)


def job_tag(out_dir: str) -> str:
    """Stable 8-hex namespace for one job's deterministic append files
    (sha1 of the job OUTPUT dir's abspath — stable across resumes of
    the same job, distinct between jobs): without it, two jobs sharing
    one index would collide on ``part-<pid>`` names and partition P of
    job B's crash cleanup would delete job A's partition-P appends."""
    import hashlib
    return hashlib.sha1(
        os.path.abspath(out_dir).encode()).hexdigest()[:8]


def clean_partition_files(index_dir: str, pid: int,
                          tag: str = "") -> int:
    """Remove THIS JOB's partition-``pid`` deterministically-named
    append files (and torn ``.tmp``s) anywhere under the index —
    crash recovery before a re-probe, so the partition never collides
    with its own previous half-append. Returns the number of files
    removed."""
    files = glob.glob(os.path.join(
        index_dir, "**", f"part-{tag}{pid:06d}.parquet*"), recursive=True)
    for f in files:
        os.remove(f)
    return len(files)


def append_partition_to_index(band_rows: pa.Table, index_dir: str,
                              pid: int, cfg: dict,
                              tag: str = "") -> int:
    """Write a partition's surviving band rows into the index as ONE
    run sorted by bucket, ``<index>/part-<tag><pid>.parquet`` (atomic
    tmp + rename) — rerunnable after clean_partition_files. No rows
    write no file. Returns the number of files written (0 or 1)."""
    if not band_rows.num_rows:
        return 0
    final = os.path.join(index_dir, f"part-{tag}{pid:06d}.parquet")
    pq.write_table(band_rows.select(["bucket", cfg["key"]])
                   .sort_by("bucket"), final + ".tmp")
    os.replace(final + ".tmp", final)
    return 1


def resolve_epoch(index_dir: str, cfg: dict, parts: list,
                  tag: str = "") -> list:
    """Drop sets of an epoch of partitions that share ONE index scan,
    equal to running them one after the other in ascending pid order.

    ``parts``: ``[(pid, band_rows), ...]`` in ascending pid order. One
    ``lsh_index_bucket_hits`` scan over the union of their buckets
    reads the index as it stands (the epoch's snapshot). Partition P
    then drops a key that collides (self-match excluded) with the
    snapshot or with the band rows of an earlier epoch-mate's
    SURVIVORS — what P's own probe would have found after those
    appends — plus the within-partition rule; P's survivors are
    appended before the next partition resolves. Returns
    ``[(drop_keys, stats), ...]`` in ``parts`` order, ``drop_keys`` an
    Arrow array of distinct keys. ``probe_s`` is the shared scan's time
    plus P's own resolve; ``index_parts_read`` and ``index_files_read``
    (both the runs the shared scan opened) and ``index_bytes_read`` are
    the shared scan's."""
    from time import perf_counter

    import pyarrow.compute as pc

    from zhtml_ray.functions.dedup import (_collide, first_of_run,
                                           lsh_index_bucket_hits,
                                           two_keys_per_bucket)

    key = cfg["key"]
    t0 = perf_counter()
    scan_stats: dict = {}
    seen = lsh_index_bucket_hits(
        index_dir, pa.concat_tables([br for _, br in parts]), scan_stats)
    scan_s = perf_counter() - t0
    out = []
    for pid, band_rows in parts:
        t1 = perf_counter()
        srt = band_rows.sort_by([("bucket", "ascending"),
                                 (key, "ascending")])
        bk = srt["bucket"].to_numpy(zero_copy_only=False)
        keys = srt[key].combine_chunks()
        index_drops = pc.unique(_collide(bk, keys, seen, key)[0])
        # within-partition: the smallest key of each bucket run survives
        # (pairwise-canonical), every other key of the run drops
        within = keys.filter(pc.not_equal(
            keys, keys.take(pa.array(first_of_run(bk), pa.int64()))))
        drop_keys = pc.unique(pa.concat_arrays([index_drops, within]))
        survivors = band_rows.filter(pc.invert(
            pc.is_in(band_rows[key], value_set=drop_keys)))
        seen = two_keys_per_bucket(pa.concat_tables([seen, survivors]),
                                   key)
        t2 = perf_counter()
        files_written = append_partition_to_index(survivors, index_dir,
                                                  pid, cfg, tag)
        t3 = perf_counter()
        n_docs = len(pc.unique(keys))
        out.append((drop_keys, {
            "index_dir": index_dir,
            "probed": n_docs,
            "dropped_index": len(index_drops),
            "dropped_within": len(drop_keys) - len(index_drops),
            "appended": n_docs - len(drop_keys),
            "index_parts_read": scan_stats["n_files_read"],
            "index_files_read": scan_stats["n_files_read"],
            "index_bytes_read": scan_stats["bytes_read"],
            "probe_s": round(scan_s + t2 - t1, 3),
            "append_s": round(t3 - t2, 3),
            "index_files_written": files_written,
            "epoch_pids": [p for p, _ in parts],
        }))
    return out


def partition_neardup(docs_ds, index_dir: str, pid: int,
                      cfg: dict | None = None,
                      budget_rows: int = 4_000_000,
                      tag: str = ""):
    """The per-partition hash → probe → mark → append lifecycle: the
    one-partition epoch of ``resolve_epoch``.

    ``docs_ds``: the partition's extracted docs (must contain
    ``cfg[key]`` and ``cfg[col]``; pass a column-pruned dataset).
    Returns ``(drop_keys, stats)`` where ``drop_keys`` is the set of
    keys marked near-duplicate and ``stats`` the manifest record; its
    ``hash_s`` times a separate ``collect_band_rows`` pass over
    ``docs_ds`` (the job computes the same buckets inside its
    extraction map instead).
    Caller sequencing contract: partitions run in ascending pid order,
    each after the previous one's append."""
    from time import perf_counter

    from zhtml_ray.functions.dedup import collect_band_rows

    cfg = cfg or pin_lsh_config(index_dir)
    cleaned = clean_partition_files(index_dir, pid, tag)
    t0 = perf_counter()
    band_rows = collect_band_rows(docs_ds, cfg, budget_rows)
    hash_s = round(perf_counter() - t0, 3)
    [(drop_keys, stats)] = resolve_epoch(index_dir, cfg,
                                         [(pid, band_rows)], tag)
    stats.update(hash_s=hash_s, stale_files_cleaned=cleaned)
    return set(drop_keys.to_pylist()), stats

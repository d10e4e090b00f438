"""Job-CLI incremental near-dup stage over an at-rest LSH index.

The 100-TB operational lifecycle (VERDICT r4 #2): each job partition
PROBES the at-rest MinHash/LSH index (functions/dedup.py:
build_lsh_index layout — ``(bucket, key)`` rows Hive-partitioned by
``bucket_part``), marks colliding docs as near-duplicates, then
APPENDS the surviving docs' band rows so every later partition (and
every later job) sees them. Semantics are candidate-level by design —
the index stores hashes, never text, so there is nothing to
exact-verify against; an LSH band collision IS the duplicate signal,
exactly like the snapshot/incremental dedup literature's first stage:

  * cross-partition: any band collision with an indexed key drops the
    probing doc (``neardup_keep = false``);
  * within-partition: docs also collide with EACH OTHER — the
    lexicographically-smaller key of every candidate pair survives
    (pairwise-canonical; deterministic and order-free).

Each partition runs two Ray executions on this path:

  1. one budgeted MinHash → band-explode pass collects the
     partition's ``(bucket, key)`` rows to the driver
     (``dedup.collect_band_rows``); the same rows feed the probe, the
     within-partition scan (numpy, driver-side) and the append;
  2. one semi-join over the pruned index (``dedup.lsh_index_semijoin``):
     a Dataset of the index FILE PATHS whose tasks each read their
     own files with pyarrow, match them against the broadcast sorted
     new buckets and return only their distinct colliding new keys;
     the driver takes the union — no shuffle, no pair Dataset.

The manifest's ``neardup`` record times the three steps (``hash_s``,
``probe_s``, ``append_s``) next to ``index_parts_read``.

The stage is append-only on the data path (a ``neardup_keep`` bool
column, preserving the job CLI's rows == inputs manifest invariant —
the same contract as ``--clean``) and exactly-once on the index path:

  * partition appends are DETERMINISTICALLY NAMED
    (``part-<pid>.parquet`` inside each ``bucket_part=`` dir), so a
    partition that crashed after appending but before its manifest
    wrote is wiped (``clean_partition_files``) and re-appended
    byte-identically on resume — the probe never sees the partition's
    own half-written rows;
  * index parameters are pinned in ``<index>/_lsh_config.json`` on
    first touch and verified on every later partition/resume (the
    plan.json config-pinning convention) — probing with different
    num_perm/bands/seed would silently miss every duplicate.

Partition order is the determinism boundary: partition P's probe must
see partitions 0..P-1's appends, so run_partitioned forces
``overlap=1`` when this stage is active.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

DEFAULT_LSH_CONFIG = {
    "key": "url",
    "col": "extracted_text",
    "n_parts": 64,
    "num_perm": 128,
    "bands": 32,
    "shingle_k": 3,
    "seed": 42,
}


def pin_lsh_config(index_dir: str, overrides: dict | None = None) -> dict:
    """Load ``<index>/_lsh_config.json`` (verifying any overrides
    against it) or pin defaults+overrides on first touch. A mismatch
    fails loudly: an index probed with the wrong parameters finds
    nothing and silently lets every duplicate through. A compaction
    that crashed mid-swap is restored (or refused) first, so a missing
    index dir beside its ``.compact.old`` is never bootstrapped
    empty."""
    from zhtml_ray.functions.dedup import recover_interrupted_compaction

    recover_interrupted_compaction(index_dir)
    os.makedirs(index_dir, exist_ok=True)
    cfg = dict(DEFAULT_LSH_CONFIG, **(overrides or {}))
    path = os.path.join(index_dir, "_lsh_config.json")
    if os.path.exists(path):
        with open(path) as f:
            stored = json.load(f)
        diff = {k for k in cfg if stored.get(k) != cfg[k]}
        if overrides and diff & set(overrides):
            raise ValueError(
                f"LSH index at {index_dir} was built with "
                f"{ {k: stored.get(k) for k in sorted(diff)} }, not "
                f"{ {k: cfg[k] for k in sorted(diff)} }; an index is "
                "only probeable with its own parameters")
        return stored
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(cfg, f)
    os.replace(tmp, path)
    return cfg


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
    append files (and torn ``.tmp``s) from every bucket_part dir —
    crash recovery before a re-probe, so the partition never collides
    with its own previous half-append. Returns the number of files
    removed."""
    pat = os.path.join(index_dir, "bucket_part=*",
                       f"part-{tag}{pid:06d}.parquet")
    removed = 0
    for f in glob.glob(pat) + glob.glob(pat + ".tmp"):
        os.remove(f)
        removed += 1
    return removed


def append_partition_to_index(band_rows: pa.Table, index_dir: str,
                              pid: int, cfg: dict,
                              tag: str = "") -> int:
    """Write a partition's surviving band rows into the index with
    deterministic per-partition file names (atomic tmp+rename per
    bucket_part) — rerunnable after clean_partition_files. Returns the
    number of bucket_part files written."""
    key = cfg["key"]
    part = np.mod(band_rows["bucket"].to_numpy(zero_copy_only=False),
                  cfg["n_parts"])
    written = 0
    for v in np.unique(part):
        sub = band_rows.filter(pa.array(part == v))
        d = os.path.join(index_dir, f"bucket_part={int(v)}")
        os.makedirs(d, exist_ok=True)
        final = os.path.join(d, f"part-{tag}{pid:06d}.parquet")
        pq.write_table(sub.select(["bucket", key]), final + ".tmp")
        os.replace(final + ".tmp", final)
        written += 1
    return written


def partition_neardup(docs_ds, index_dir: str, pid: int,
                      cfg: dict | None = None,
                      budget_rows: int = 4_000_000,
                      tag: str = ""):
    """The per-partition hash → probe → mark → append lifecycle.

    ``docs_ds``: the partition's extracted docs (must contain
    ``cfg[key]`` and ``cfg[col]``; pass a column-pruned dataset).
    Returns ``(drop_keys, stats)`` where ``drop_keys`` is the set of
    keys marked near-duplicate and ``stats`` the manifest record.
    Caller sequencing contract: partitions run in ascending pid order
    (run_partitioned forces overlap=1)."""
    from time import perf_counter

    from zhtml_ray.functions.dedup import (collect_band_rows,
                                           lsh_index_semijoin)

    cfg = cfg or pin_lsh_config(index_dir)
    key = cfg["key"]
    cleaned = clean_partition_files(index_dir, pid, tag)
    t0 = perf_counter()
    band_rows = collect_band_rows(
        docs_ds, key=key, col=cfg["col"], num_perm=cfg["num_perm"],
        bands=cfg["bands"], shingle_k=cfg["shingle_k"],
        seed=cfg["seed"], budget_rows=budget_rows)
    t1 = perf_counter()
    scan_stats: dict = {}
    index_drops = lsh_index_semijoin(index_dir, band_rows, key=key,
                                     n_parts=cfg["n_parts"],
                                     scan_stats=scan_stats)
    t2 = perf_counter()

    # within-partition: the same band rows serve the pair scan (numpy,
    # driver-side — the partition is the budgeted small side by
    # contract) and, post-filter, the index append
    keys = np.asarray(band_rows[key].to_pylist(), object)
    bk = band_rows["bucket"].to_numpy(zero_copy_only=False)
    order = np.lexsort((keys, bk))
    bk, keys = bk[order], keys[order]
    within_drops: set = set()
    run_start = 0
    for i in range(1, len(bk) + 1):
        if i == len(bk) or bk[i] != bk[run_start]:
            if i - run_start > 1:
                seen = keys[run_start]
                for k in keys[run_start + 1:i]:
                    if k != seen:
                        within_drops.add(k)  # smaller key survives
            run_start = i
    drop_keys = index_drops | within_drops

    survivors = band_rows if not drop_keys else band_rows.filter(
        pa.array([k not in drop_keys for k in band_rows[key].to_pylist()]))
    t3 = perf_counter()
    files_written = append_partition_to_index(survivors, index_dir,
                                              pid, cfg, tag)
    t4 = perf_counter()
    n_docs = len(set(keys.tolist()))
    stats = {
        "index_dir": index_dir,
        "probed": n_docs,
        "dropped_index": len(index_drops),
        "dropped_within": len(within_drops - index_drops),
        "appended": n_docs - len(drop_keys),
        "index_parts_read": scan_stats.get("n_parts_read", 0),
        "hash_s": round(t1 - t0, 3),
        "probe_s": round(t2 - t1, 3),
        "append_s": round(t4 - t3, 3),
        "index_files_written": files_written,
        "stale_files_cleaned": cleaned,
    }
    return drop_keys, stats

"""Job entry point for ``ray job submit`` (north rule: "run via ray job
submit on a fixed-size multi-node Ray cluster", resumable mid-dataset).

    ray job submit -- python -m zhtml_ray.job \
        --input '/data/pages/*.parquet' --output /data/extracted --resume

Partition manifests under <output>/_manifests make ``--resume`` skip
completed partitions entirely (stages/manifest.py). Without --resume the
output directory must not already contain manifests.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys


def main(argv=None):
    p = argparse.ArgumentParser(prog="zhtml_ray.job")
    p.add_argument("--compact-index", default=None, metavar="DIR",
                   help="maintenance mode: LSM-compact a --neardup-"
                        "index directory (run BETWEEN jobs — folds "
                        "accumulated runs into a few bucket-sorted "
                        "runs) and exit; --input/--output unused")
    p.add_argument("--input", required=False,
                   help="glob or directory of pages parquet shards "
                        "and/or .warc/.warc.gz crawl shards")
    p.add_argument("--output", required=False, help="output directory")
    p.add_argument("--resume", action="store_true",
                   help="skip partitions with completed manifests")
    p.add_argument("--group-size", type=int, default=4,
                   help="input shards per partition (resume granularity)")
    p.add_argument("--overlap", type=int, default=2,
                   help="concurrent partition sub-executions; with "
                        "--neardup-index, the epoch size: that many "
                        "consecutive partitions share one index scan")
    p.add_argument("--batch-size", type=int, default=None,
                   help="rows per parse batch; default block-as-batch")
    p.add_argument("--no-spans", action="store_true")
    p.add_argument("--clean", action="store_true",
                   help="append C4+Gopher clean_text/clean_keep columns "
                        "to every extracted row (config-pinned: a "
                        "--resume must match the original run)")
    p.add_argument("--neardup-index", default=None, metavar="DIR",
                   help="at-rest LSH index dir: probe each partition's "
                        "extracted docs against it, append a "
                        "neardup_keep column, and append survivors so "
                        "later partitions/jobs dedup against them "
                        "(bootstraps an empty dir; config-pinned via "
                        "the dir's _lsh_config.json; partitions run in "
                        "epochs of --overlap with the same drops as a "
                        "sequential run)")
    args = p.parse_args(argv)

    import os
    if args.compact_index:
        import ray
        owns = not ray.is_initialized()
        if owns:
            ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                     include_dashboard=False, logging_level="ERROR")
        try:
            from ray.data import DataContext
            DataContext.get_current().enable_progress_bars = False
            from zhtml_ray.functions.dedup import compact_lsh_index
            print(json.dumps(compact_lsh_index(args.compact_index)))
            return 0
        finally:
            if owns:
                ray.shutdown()
    if not args.input or not args.output:
        print("--input and --output are required (unless "
              "--compact-index)", file=sys.stderr)
        return 2
    if args.group_size < 1:
        print(f"--group-size must be >= 1, got {args.group_size}",
              file=sys.stderr)
        return 2
    if os.path.isdir(args.input):
        files = sorted(f for pat in ("*.parquet", "*.warc", "*.warc.gz")
                       for f in glob.glob(os.path.join(args.input, pat)))
    else:
        files = sorted(glob.glob(args.input))
    if not files:
        print(f"no input files match {args.input}", file=sys.stderr)
        return 2

    from zhtml_ray.stages.manifest import completed_partitions, run_partitioned
    if not args.resume and completed_partitions(args.output):
        print(f"{args.output} already has manifests; pass --resume to "
              "continue or choose a fresh output dir", file=sys.stderr)
        return 2

    import ray
    owns_session = not ray.is_initialized()
    if owns_session:  # only the CLI owns a session (guarded)
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")
    try:
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
        from zhtml_ray.stages.skew import cap_block_size
        cap_block_size()  # session-scoped giant-block byte cap
        summary = run_partitioned(
            files, args.output, group_size=args.group_size,
            overlap=args.overlap,
            extract_kwargs={"batch_size": args.batch_size,
                            "include_spans": not args.no_spans,
                            "clean": args.clean,
                            "neardup_index": args.neardup_index})
        print(json.dumps(summary))
        return 0 if summary["complete"] else 1
    finally:
        if owns_session:  # never tear down a caller's session
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())

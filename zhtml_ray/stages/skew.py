"""Skew defusal for mega-HTML documents (SURVEY.md §4.3; north_star:
"explicit repartitioning and salt-key redistribution to defuse skew").

Parse cost is ∝ html bytes (one state step per input char), so a 50 MB
document is ~10⁴× a median page. Measured on the sf0.1 fixture
(50k docs + 4×3.6MB giants, 8 CPUs):

  * two filtered reads (html_len pushdown) + union:      32.5 s
  * …plus a repartition barrier on the giant branch:     35.1 s
  * ONE read, block-as-batch (batch_size=None):          11.2 s

The double-read design loses: the second scan + the union/repartition
barriers cost far more than giant isolation saves. The winning design
relies on Ray Data's own block layout:

  * one ``read_parquet`` pass split into ≥ 2 blocks per cpu
    (``extract_with_skew_routing``); the reader's dynamic block
    splitting (``DataContext.target_max_block_size``, 32 MiB under
    ``cap_block_size``) also caps block bytes, so a shard of giants
    becomes many blocks at ingest — no shuffle;
  * ``batch_size=None`` → each block is one task ("block-as-batch"):
    a giant's block IS its own task, so it parses on its own core and
    never rides with 63 small-row hostages (and normal blocks skip the
    slice/coalesce overhead of re-batching);
  * layout guidance: write giant docs into dedicated shards at ingest
    (our fixture does: pages-mega.parquet) so giant blocks are pure.

Every unsplit pages read is planned by ``read_plan`` and read by
``sources/pages.read_pages``: job partitions (``stages/manifest``,
from the footers they already hold), ``run_extract`` and the
registry's pages entries (``sources/pages.plan_pages``). The plan is one unsplit
block per shard file, more only when fewer files than cpus hold
several MB of html. Ray 2.49 fuses an unsplit read with the maps after
it, so read → parse → [clean] → [band buckets] → write run as one
task per file; its default (≥ 2×cpus blocks) splits small shards and
pays a read task and an object-store hop per block (crawl_mix on 4
cpus: 16 parse tasks at 54–60% core use). The price is the isolation
above: a shard of giants under 32 MiB is one task that parses them one
after another.

``extract_with_skew_routing`` keeps its split read (≥ 2 blocks per
cpu), where a giant's block is its own task. The two plans lay giants
out differently: on ``pages_dir_for(sf0.01, mega_docs=4)`` with 4 cpus
the split read gives 12 blocks and cuts the mega shard into 2 + 2 docs
of 7.2 MB each, while ``read_plan`` gives 6 blocks with the mega shard
whole at 14.4 MB, one task. Whether a giant needs its own task is an
A/B that needs several free cores (ROADMAP item 4); until it is run,
skew routing, and bench.py's extract and error histogram through it,
keep its own read.
"""

from __future__ import annotations

# Cap on read-output block bytes: ≥1 giant per block still parses alone;
# a worst-case block holds ~GIANT_BLOCK_BYTES of sequential parse work
# (~4s at the measured 8 MB/s single-core rate) — the straggler ceiling
# of a split read. A job partition's fused read (``read_plan``) runs all
# of a file's blocks in one task, so there it bounds no task.
GIANT_BLOCK_BYTES = 32 * 1024 * 1024


def cap_block_size(max_bytes: int = GIANT_BLOCK_BYTES) -> None:
    """Session-scoped: cap ``DataContext.target_max_block_size`` (never
    raising it) so giant-heavy read outputs split into ~1-doc blocks.
    Call this from the process that OWNS the Ray session (bench.py,
    job.py, a user's driver) — it is a global knob, so the library
    stages themselves never touch it."""
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    if ctx.target_max_block_size is None or \
            ctx.target_max_block_size > max_bytes:
        ctx.target_max_block_size = max_bytes


def read_plan(shards: list) -> dict:
    """Plan ONE ``read_parquet`` over ``shards``, a list of ``(path,
    parquet footer)`` (``pq.read_metadata``), from the footers' html
    column uncompressed sizes (no data read): ``{"files": the paths,
    most html first, "read_blocks": max(n_files, min(cluster_cpus(),
    html_bytes // DataContext.target_min_block_size)),
    "footer_html_bytes": html_bytes}``.

    At least one block per file: Ray 2.49 never fuses a read that splits
    its files into more blocks than files with the next map
    (``operator_fusion._can_fuse``: additional split factor > 1), and
    its default read parallelism is ≥ 2×cpus blocks. So small shards
    left to the default pay one read task and one object-store hop per
    block, while one unsplit block per file runs read → parse → … →
    write as ONE fused task per file. Fewer files than cpus holding
    several MB of html still split, up to one block per cpu and never
    below ``target_min_block_size`` a block.

    Read tasks start in file order, and until its first task returns
    Ray Data budgets a fused task's output at ``target_max_block_size``
    a block, which admits only 2–3 concurrent tasks in a 512 MB object
    store: the costliest file goes first, so a giant shard does not
    start last (long_pages on 4 cpus: a 1.7 s task that started at
    1.2 s in a 2.9 s job)."""
    import ray.data as rd

    from zhtml_ray.stages.util import cluster_cpus

    sizes = [sum(rg.column(j).total_uncompressed_size
                 for rg in map(md.row_group, range(md.num_row_groups))
                 for j in range(rg.num_columns)
                 if rg.column(j).path_in_schema == "html")
             for _, md in shards]
    html_bytes = sum(sizes)
    min_block = rd.DataContext.get_current().target_min_block_size
    return {"files": [f for _, (f, _) in sorted(
                zip(sizes, shards), key=lambda t: -t[0])],
            "read_blocks": max(len(shards), min(cluster_cpus(),
                                                html_bytes // min_block)),
            "footer_html_bytes": html_bytes}


def extract_with_skew_routing(paths, include_spans: bool = True):
    """pages shards → extraction Dataset with giant-doc skew defused by
    block layout (see module docstring). Single read, no shuffle, no
    barrier, no global-context mutation (session owners call
    ``cap_block_size`` for the belt-and-braces byte cap; the read's own
    per-file splitting already lands fixture giants 1-per-block). The
    read asks ~1000 rows per task with a floor of 2 waves per core:
    fewer tasks = less driver-side per-task overhead, still ≥2 waves
    for balancing (default-vs-64-block sweep at sf0.1: 2.7 s → 2.4 s).
    Giant-doc isolation does NOT depend on the block count: the
    session's ``cap_block_size`` byte cap makes the reader's dynamic
    splitter put oversized rows in their own blocks regardless."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data as rd

    from zhtml_ray.pipelines.extract import extract_pages
    from zhtml_ray.stages.util import cluster_cpus

    kw = {}
    try:  # metadata-only row count (no data read)
        n_rows = pads.dataset(paths).count_rows()
        kw["override_num_blocks"] = max(
            1, min(n_rows, max(2 * cluster_cpus(), n_rows // 1000)))
    except (OSError, pa.ArrowInvalid):  # non-path inputs: reader default
        pass
    ds = rd.read_parquet(paths, columns=["url", "html", "lang"], **kw)
    return extract_pages(ds, batch_size=None, include_spans=include_spans)

"""Shared stage helpers: map-stage convention, cluster sizing, block
plumbing.

A ``map_batches`` stage with no per-process state runs as Ray Data
tasks, never an actor pool. A callable class with a cheap ``__init__``
is passed as an instance (``map_batches(QualityScore())``); one whose
``__init__`` only ``ray.get``s a broadcast ref goes through
``stateless_stage``. Module-level state and the per-worker cache of
``ray.get`` keep a task as warm as an actor after first touch, and a
task pays no pool start-up. On sf0.01 documents (4-cpu session, one
physical core) QualityScore, GopherStats, LangId and BpeTokenCount
took 1.2–1.9 s each as a pool and 0.18–0.23 s as tasks. Tasks also
fuse with the read before them and hold no CPU for an idle actor. The
one pool left is the model stage (``functions/inference``), which
loads its model once per actor; only it passes ``concurrency=``.
"""

from __future__ import annotations


def cluster_cpus(default: int = 4) -> int:
    import ray
    if not ray.is_initialized():
        return default
    return int(ray.cluster_resources().get("CPU", default) or default)


def stateless_stage(cls, **ctor_kwargs):
    """``map_batches``-ready plain function wrapping a callable-class
    stage whose ``__init__`` only ``ray.get``s broadcast refs (and
    trivially reshapes them): the class is constructed PER BATCH —
    ``ray.get`` of the same ObjectRef is cached per worker process, so
    stateless tasks are as warm as an actor pool WITHOUT the pool's
    spin-up (r5: measured ~2 s of actor-pool startup per stage on
    sub-second workloads across the dedup and PQ/ANN families). Keep
    actor pools (a callable class + ``concurrency=``) for stages whose
    setup does real work per actor — model loads, index builds."""
    def fn(batch):
        return cls(**ctor_kwargs)(batch)
    fn.__name__ = f"stateless_{cls.__name__}"
    return fn


def block_refs(ds) -> list:
    """``(block ref, block metadata)`` of every non-empty block of a
    MATERIALIZED Dataset, in block order — read from its ref bundles,
    so no Ray Data execution starts and no block is fetched."""
    return [(ref, meta) for bundle in ds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows]


_ZERO_CPU_TASKS: dict = {}


def at_blocks(refs: list, fn, *args) -> list:
    """``fn(block, i, *args)`` for each block ref of ``refs`` (``i`` its
    position), where the block lives, with no Ray Data execution:
    results in ``refs`` order. A block held on this process's node (or
    inline in its memory) is read zero-copy with ``ray.get`` and
    ``fn`` runs here; a block held only on other nodes gets one
    zero-CPU task, which Ray schedules next to its argument, so only
    ``fn``'s result crosses the network. (A task per block on one node
    would start extra worker processes while other executions hold the
    CPUs.) ``fn`` must be a module-level function; ``args`` go to the
    object store once, and only when some block is far."""
    import ray
    import ray.experimental

    if not refs:
        return []
    here = ray.get_runtime_context().get_node_id()
    locs = ray.experimental.get_object_locations(refs)
    far = [bool(locs[r]["node_ids"]) and here not in locs[r]["node_ids"]
           for r in refs]
    pending = list(refs)
    if any(far):
        if fn not in _ZERO_CPU_TASKS:
            _ZERO_CPU_TASKS[fn] = ray.remote(num_cpus=0)(fn)
        arg_refs = [ray.put(a) for a in args]
        pending = [_ZERO_CPU_TASKS[fn].remote(r, i, *arg_refs) if f else r
                   for i, (r, f) in enumerate(zip(refs, far))]
    return [out if f else fn(out, i, *args)
            for i, (out, f) in enumerate(zip(ray.get(pending), far))]


def drop_empty_blocks(ds):
    """Rebuild a (small, already-materialized) Dataset from its non-empty
    block refs. Ray's groupby.map_groups can emit 0-row blocks with an
    EMPTY schema (the UDF never runs for them), and pyarrow's hash join
    rejects a shuffle partition built from such a block ("no match for
    key field"). Zero-copy: only object refs move, blocks stay put.

    The rebuild is load-bearing beyond the empty blocks: ``from_arrow_refs``
    also cuts the Dataset's ``DatasetStats`` lineage. A caller that
    unions two lazy branches of one dataset in a loop
    (``sorted_head_n_per_group`` over one materialized sort, iterated by
    BFS) otherwise doubles the stats tree every round — skipping the
    rebuild when no block is empty hung
    ``test_bfs_depth_differential[0-10-60-200]`` in ``to_summary``
    recursion. Keep it even when every block has rows."""
    import ray.data as rd
    ds = ds.materialize()
    refs = [ref for ref, _ in block_refs(ds)]
    if not refs:
        return ds
    return rd.from_arrow_refs(refs)


def compact_blocks(ds, target_rows: int = 65536):
    """Materialize and coalesce a tiny-block-heavy Dataset to
    ~``target_rows`` rows per block. A ``sorted_bucket_apply`` output
    carries ~2 small blocks per INPUT block (interior + boundary), and
    Ray's range sort costs O(input_blocks × output_partitions) block
    parts — feeding one sortagg stage's output straight into the next
    sort measured 420+ s where the same rows in 3 compacted blocks
    sorted in seconds (500k-doc mask_dup_spans probe, session 7).
    No-op (beyond the materialize) when blocks are already
    reasonably sized."""
    ds = ds.materialize()
    n = ds.count()
    want = max(1, -(-n // target_rows))
    if ds.num_blocks() > want * 2:
        return ds.repartition(want).materialize()
    return ds


def schema_safe_result(ds):
    """For SMALL final results only: Ray's ``to_pandas()`` returns a
    column-less frame for an all-empty Dataset (whatever the blocks'
    schemas), which fails any downstream schema compare. Materialize;
    if empty, hand back a typed empty ``pyarrow.Table`` instead (the
    driver contract accepts Dataset | DataFrame | Table)."""
    import pyarrow as pa
    ds = ds.materialize()
    if ds.count() > 0:
        return ds
    sch = ds.schema()
    if sch is None or not sch.names:
        return ds  # nothing recoverable
    schema = sch.base_schema
    return pa.table({f.name: pa.array([], f.type) for f in schema})


def sized_partitions(n_rows: int, rows_per_part: int = 100_000) -> int:
    """Hash-shuffle partition count sized to the DATA, capped at ~2
    waves of tasks per CPU (floor 8): every partition is an aggregator
    actor, so a 64-way shuffle of a 200k-row label table pays ~60
    actor spin-ups for nothing (measured: label-propagation rounds
    dropped from ~12 s to seconds on the 200k-doc dedup bench). Floor
    2 keeps the operator distributed."""
    import math
    return max(2, min(max(8, cluster_cpus() * 2),
                      math.ceil(max(1, n_rows) / rows_per_part)))


def harmonize_union(datasets, target_schema):
    """Schema-evolution union (X126): combine Datasets whose at-rest
    schemas have DRIFTED — missing columns (null-filled), narrower
    numeric types (widened by cast), different column orders — into
    one stream with ``target_schema``. Pure per-batch map on each
    input (zero shuffle) + the zero-copy ``union``; unknown extra
    columns are dropped loudly only if absent from the target (the
    caller's target IS the contract). A column present with an
    incompatible (non-castable) type raises inside the task — schema
    drift must fail loudly, not null out silently."""
    import pyarrow as pa

    target = target_schema

    def conform(b: pa.Table) -> pa.Table:
        cols = []
        for f in target:
            if f.name in b.column_names:
                cols.append(b[f.name].cast(f.type))
            else:
                cols.append(pa.nulls(b.num_rows, f.type))
        return pa.Table.from_arrays(
            [c.combine_chunks() if isinstance(c, pa.ChunkedArray)
             else c for c in cols], schema=target)

    outs = [d.map_batches(conform, batch_format="pyarrow")
            for d in datasets]
    u = outs[0]
    for o in outs[1:]:
        u = u.union(o)
    return u

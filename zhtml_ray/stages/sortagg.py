"""Sort-based grouped primitives.

Measured on this Ray version (BENCH/BASELINE.md, r3 dedup section):
the hash-shuffle ``groupby().aggregate()`` runs 36–48 s over 6.4M rows
with 4.5M groups at ANY partition count, while the range-shuffle
``sort()`` moves the same rows in 1.9 s and block-local Arrow/numpy
aggregation is essentially free. For high-cardinality keys the sort
form is ~20× faster with identical semantics.

After the sort every group is a contiguous run; runs inside a block
are exact, and only each block's FIRST and LAST runs can straddle a
block edge, so those rows take one small second pass bounded by block
count, not data:

- ``sorted_head_n_per_group`` (``sorted_first_per_group`` is n=1)
  ships only the first n rows of each edge run;
- ``sorted_sum_per_group`` ships each edge run's partial sums;
- ``sorted_bucket_apply`` hands a caller's run function whole runs,
  the edge runs of all blocks regrouped and re-sorted in one task
  (``sorted_lookup_join`` is built on it).

``key_join`` picks between a broadcast lookup and
``sorted_lookup_join`` by the lookup's measured size.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _run_starts(b: pa.Table, group_cols: list[str]) -> np.ndarray:
    """Positions where a new group run begins (composite adjacent-diff
    across the group columns, vectorized per column)."""
    import pyarrow.compute as pc
    n = b.num_rows
    diff = np.zeros(max(n - 1, 0), bool)
    for c in group_cols:
        if n <= 1:
            break
        col = b[c].combine_chunks()
        # value-vs-null compares yield null (filled as "equal"), so the
        # validity flip supplies that boundary; null==null stays equal
        ne = pc.fill_null(pc.not_equal(col.slice(1), col.slice(0, n - 1)),
                          False).to_numpy(zero_copy_only=False).astype(bool)
        va = pc.is_valid(col).to_numpy(zero_copy_only=False)
        diff |= ne | (va[1:] != va[:-1])
    return np.flatnonzero(np.r_[True, diff])


def head_index(starts: np.ndarray, ends: np.ndarray,
               n: int) -> np.ndarray:
    """Row positions of the first ``n`` rows of every run
    ``[starts[i], ends[i])``, in run order — one repeat/arange
    construction, no per-run Python."""
    cnt = np.minimum(ends - starts, n)
    off = np.cumsum(cnt) - cnt
    return (np.repeat(starts - off, cnt)
            + np.arange(int(cnt.sum()), dtype=np.int64))


def sorted_first_per_group(ds, group_cols, tie_cols=()):
    """One row per distinct ``group_cols`` combination: the first row
    in ``sort(group_cols + tie_cols)`` order (i.e. min of the tie
    columns per group). Returns a Dataset with the input schema."""
    return sorted_head_n_per_group(ds, group_cols, tie_cols, n=1)


def sorted_head_n_per_group(ds, group_cols, tie_cols, n):
    """First ``n`` rows per distinct ``group_cols`` combination in
    ``sort(group_cols + tie_cols)`` order (min-n-by). ONE range
    shuffle, block-local run heads, and a boundary pass that ships
    only the first ``n`` rows of each block's first/last run (<= 2n
    rows per block — a hot group never lands whole on one worker).
    Empty input passes through."""
    import pyarrow.compute as pc
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    group_cols = list(group_cols)
    tie_cols = list(tie_cols)
    srt = ds.sort(group_cols + tie_cols).materialize()
    if srt.count() == 0:
        return srt

    def run_bounds(b):
        starts = _run_starts(b, group_cols)
        return starts, np.r_[starts[1:], b.num_rows]

    def interior_heads(b: pa.Table) -> pa.Table:
        starts, ends = run_bounds(b)
        idx = head_index(starts[1:-1], ends[1:-1], n)
        return b.take(pa.array(idx, pa.int64()))

    def edge_rows(b: pa.Table) -> pa.Table:
        # rows within a run are already tie-sorted by the global sort,
        # so each block's candidates for a boundary group are the
        # first n rows of its first and last runs
        starts, ends = run_bounds(b)
        idx = np.unique(head_index(starts[[0, -1]], ends[[0, -1]], n))
        return b.take(pa.array(idx, pa.int64()))

    interior = srt.map_batches(interior_heads, batch_size=None,
                               batch_format="pyarrow")
    edges = drop_empty_blocks(
        srt.map_batches(edge_rows, batch_size=None,
                        batch_format="pyarrow"))

    def head_of(g: pa.Table) -> pa.Table:
        # candidates arrive in arbitrary order; re-sort by ties so the
        # group head-n is the global min-n-by
        if tie_cols:
            order = pc.sort_indices(
                g, sort_keys=[(c, "ascending") for c in tie_cols])
            g = g.take(order)
        return g.slice(0, n)

    # edges is <= 2n rows per block scattered over ~blocks tiny blocks;
    # Ray's groupby sort pays per-block overhead, not per-row — the
    # uncompacted form measured 2.4 s for 400 rows (r4 stats audit)
    boundary = compact_blocks(edges).groupby(group_cols).map_groups(
        head_of, batch_format="pyarrow")
    return interior.union(boundary)


def sorted_sum_per_group(ds, group_cols, sum_cols):
    """``groupby(group_cols).sum(sum_cols)`` as ONE range-shuffle sort
    + block-local ``np.add.reduceat`` run sums. Measured on this Ray
    version: ``groupby().aggregate(Sum)`` costs ~10.5 s over 1.75M
    rows / 200k groups regardless of key type, while the same data
    range-sorts in 0.4–0.7 s and segment sums are C-speed — ~15–25×.

    A hot group never converges on one worker: each block contributes
    at most TWO boundary rows (the PARTIAL SUMS of its first and last
    runs), and the boundary combine runs over ≤ 2×blocks rows in one
    task. Sum columns must be non-null (partial tables always are);
    int64 sums are exact and layout-invariant, float sums follow the
    caller's pin rules exactly as with Ray's Aggregate. Output
    columns: group_cols + sum_cols (same names, summed)."""
    from zhtml_ray.stages.util import drop_empty_blocks

    group_cols = list(group_cols)
    sum_cols = list(sum_cols)
    srt = ds.sort(group_cols).materialize()
    if srt.count() == 0:
        return srt
    schema = srt.schema().base_schema
    empty = pa.table({c: pa.array([], schema.field(c).type)
                      for c in group_cols + sum_cols})

    def block_runsums(b: pa.Table):
        starts = _run_starts(b, group_cols)
        keys = {c: b[c].combine_chunks().take(
            pa.array(starts, pa.int64())) for c in group_cols}
        sums = {c: np.add.reduceat(
            b[c].combine_chunks().to_numpy(zero_copy_only=False),
            starts) for c in sum_cols}
        return starts, keys, sums

    def pick(keys, sums, sel) -> pa.Table:
        return pa.table({**{c: keys[c].take(pa.array(sel, pa.int64()))
                            for c in group_cols},
                         **{c: pa.array(sums[c][sel])
                            for c in sum_cols}})

    def interior(b: pa.Table) -> pa.Table:
        starts, keys, sums = block_runsums(b)
        if len(starts) <= 2:
            return empty
        return pick(keys, sums, np.arange(1, len(starts) - 1))

    def edge_partials(b: pa.Table) -> pa.Table:
        starts, keys, sums = block_runsums(b)
        sel = np.unique([0, len(starts) - 1])
        return pick(keys, sums, sel)

    interior_ds = srt.map_batches(interior, batch_size=None,
                                  batch_format="pyarrow")
    edges = drop_empty_blocks(
        srt.map_batches(edge_partials, batch_size=None,
                        batch_format="pyarrow"))
    if edges.count() == 0:
        return interior_ds

    def combine(b: pa.Table) -> pa.Table:
        g = b.group_by(group_cols).aggregate(
            [(c, "sum") for c in sum_cols])
        return g.rename_columns(group_cols + sum_cols)

    # ≤ 2×blocks partial rows: one task combines them all
    boundary = edges.repartition(1).map_batches(
        combine, batch_size=None, batch_format="pyarrow")
    return interior_ds.union(boundary)


def sorted_bucket_apply(ds, bucket_col, sort_keys, runs_fn,
                        empty_result: pa.Table):
    """The sort-based per-bucket pattern: ONE range-shuffle
    ``sort(sort_keys)`` (ascending, ``bucket_col`` first; any
    orderable non-null bucket type), then ``runs_fn(table, starts,
    ends) -> pa.Table`` over WHOLE bucket runs only. The runs tile
    ``table`` (``starts[0] == 0``, ``ends[-1] == table.num_rows``) and
    every run's rows are in ``sort_keys`` order, so a bucket reaches
    ``runs_fn`` exactly once, complete.

    After the global sort only a block's first and last runs can
    continue into a neighbouring block. The runs between them go to
    ``runs_fn`` block-locally, as one contiguous slice. The first and
    last runs of every block meet in one regroup task, bounded by
    block count rather than data (plus any hot bucket larger than a
    block), where they are re-sorted by ``sort_keys`` so each edge
    bucket is one whole run. No driver collect and no extra Ray
    execution: the result is lazy over the materialized sort.

    ``empty_result`` is a zero-row table with the OUTPUT schema: the
    empty-input result and the value of a block with no interior run.
    Every output block carries its schema."""
    import pyarrow.compute as pc
    import ray.data as rd
    from zhtml_ray.stages.util import drop_empty_blocks

    # no empty sorted block: Ray passes an empty block through a map
    # without calling the UDF, schema-less as the sort left it (the
    # rebuild from block refs also cuts the stats lineage that both
    # branches below share)
    srt = drop_empty_blocks(ds.sort(list(sort_keys)))
    if srt.count() == 0:
        return rd.from_arrow(empty_result)
    order = [(k, "ascending") for k in sort_keys]

    def run_bounds(b: pa.Table):
        starts = _run_starts(b, [bucket_col])
        return starts, np.r_[starts[1:], b.num_rows]

    def interior(b: pa.Table) -> pa.Table:
        starts, ends = run_bounds(b)
        if len(starts) <= 2:
            return empty_result
        lo = starts[1]
        return runs_fn(b.slice(lo, ends[-2] - lo),
                       starts[1:-1] - lo, ends[1:-1] - lo)

    def edge_runs(b: pa.Table) -> pa.Table:
        starts, ends = run_bounds(b)
        if len(starts) == 1:
            return b
        return pa.concat_tables([b.slice(0, ends[0]),
                                 b.slice(starts[-1])])

    def edge_buckets(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, sort_keys=order))
        return runs_fn(t, *run_bounds(t))

    regrouped = srt.map_batches(
        edge_runs, batch_size=None, batch_format="pyarrow") \
        .repartition(1).map_batches(edge_buckets, batch_size=None,
                                    batch_format="pyarrow")
    return srt.map_batches(interior, batch_size=None,
                           batch_format="pyarrow").union(regrouped)


def sorted_lookup_join(big, lookup, key_col, payload_cols, how="inner"):
    """Attach ``payload_cols`` from ``lookup`` onto ``big``'s rows by
    ``key_col`` — a merge join expressed as ONE range-shuffle sort of
    the tagged union (via ``sorted_bucket_apply``), replacing a hash
    ``Dataset.join``. Measured on this Ray version the hash join costs
    ~5× the equivalent sort at equal bytes moved (BENCH/BASELINE.md r3
    label-prop section), and the sort path is immune to the
    empty-block schema-loss crashes that force ``drop_empty_blocks``
    guards around every hash-join input.

    ``lookup`` must be unique per key (only the first lookup row of a
    key is consulted); ``big`` may repeat keys freely. ``how='left'``
    keeps unmatched big rows with null payloads; ``'inner'`` drops
    them; ``'full'`` additionally emits one row per lookup key with NO
    big rows (key + payloads populated, big's other columns null) —
    the FULL OUTER join, still the same single range shuffle.
    ``'semi'`` / ``'anti'`` keep the big rows whose key is / is not in
    ``lookup`` (which may then repeat keys); pass no payload_cols.
    Output columns: big's columns (in order) + payload_cols."""
    import numpy as np

    big_schema = big.schema().base_schema
    lk_schema = lookup.schema().base_schema
    big_cols = list(big_schema.names)
    assert key_col in big_cols and key_col in lk_schema.names
    clash = set(payload_cols) & set(big_cols)
    if clash or "_src" in big_cols or "_src" in payload_cols:
        # a payload name already present in big would silently replace
        # user data; a '_src' column would corrupt the row tagging
        raise ValueError(f"sorted_lookup_join: column collision "
                         f"{clash or {'_src'}} between big and "
                         "payload/tag columns")
    empty_result = pa.table(
        {**{n: pa.array([], big_schema.field(n).type) for n in big_cols},
         **{p: pa.array([], lk_schema.field(p).type)
            for p in payload_cols}})
    other_big = [n for n in big_cols if n != key_col]

    def tag_big(b: pa.Table) -> pa.Table:
        cols = {key_col: b[key_col],
                "_src": pa.array(np.ones(b.num_rows, np.int8))}
        for n in other_big:
            cols[n] = b[n]
        for p in payload_cols:
            cols[p] = pa.nulls(b.num_rows, lk_schema.field(p).type)
        return pa.table(cols)

    def tag_lookup(b: pa.Table) -> pa.Table:
        cols = {key_col: b[key_col],
                "_src": pa.array(np.zeros(b.num_rows, np.int8))}
        for n in other_big:
            cols[n] = pa.nulls(b.num_rows, big_schema.field(n).type)
        for p in payload_cols:
            cols[p] = b[p]
        return pa.table(cols)

    tagged = big.map_batches(tag_big, batch_format="pyarrow").union(
        lookup.map_batches(tag_lookup, batch_format="pyarrow"))

    def join_runs(b, starts, ends):
        # each run is one key, sorted by _src: a lookup row (src 0)
        # heads its run when the key has one
        S = (b["_src"].combine_chunks()
             .to_numpy(zero_copy_only=False) != 0)
        lens = ends - starts
        head_ok = ~S[starts]
        hit = np.repeat(head_ok, lens)
        keep = {"inner": S & hit, "semi": S & hit,
                "anti": S & ~hit}.get(how, S)
        pos = np.flatnonzero(keep)
        run_of = np.repeat(np.arange(len(starts)), lens)[pos]
        # null head index → null payload via Arrow take semantics
        hidx = pa.array(starts[run_of], pa.int64(),
                        mask=~head_ok[run_of])
        posa = pa.array(pos, pa.int64())
        cols = {n: b[n].combine_chunks().take(posa) for n in big_cols}
        for p in payload_cols:
            cols[p] = b[p].combine_chunks().take(hidx)
        out_tbl = pa.table(cols)
        if how == "full":
            # lookup keys with NO big rows: emit the lookup row itself
            lonely = np.flatnonzero(
                head_ok & ~np.logical_or.reduceat(S, starts))
            if lonely.size:
                lpos = pa.array(starts[lonely], pa.int64())
                nulls = pa.array(np.zeros(lonely.size, np.int64),
                                 mask=np.ones(lonely.size, bool))
                lcols = {n: b[n].combine_chunks().take(
                    lpos if n == key_col else nulls) for n in big_cols}
                for p in payload_cols:
                    lcols[p] = b[p].combine_chunks().take(lpos)
                out_tbl = pa.concat_tables([out_tbl, pa.table(lcols)])
        return out_tbl

    return sorted_bucket_apply(tagged, key_col, [key_col, "_src"],
                               join_runs, empty_result)


# A lookup side of at most this many bytes (block metadata) broadcasts
# in ``key_join``; a larger one shuffles. ``corpusstats.ngram_logprob``
# and ``heavy_hitters`` pick their fused broadcast maps by it too.
# 1M int64 keys are 8 MB; the largest lookup of the sf0.1 queries,
# crawl_depth's first BFS frontier, is 1.7 MB.
BROADCAST_BYTES = 16 << 20


def key_join(big, lookup, key_col, payload_cols=(), how="inner"):
    """Keyed join of ``big`` against ``lookup`` on ``key_col`` (the
    same name on both sides), ``how`` in ``inner`` / ``left`` (attach
    ``payload_cols``, as ``sorted_lookup_join``) or ``semi`` / ``anti``
    (filter ``big``, no payloads). ``lookup`` materializes and its
    block-metadata size picks the tier:

    * broadcast — at most ``BROADCAST_BYTES``: one ``ray.put`` of its
      columns, then one map over ``big`` probing them with
      ``pc.index_in`` (block-as-batch, ``big``'s rows in order);
    * sort — otherwise: ``sorted_lookup_join``, one range shuffle of
      both sides, nothing unbounded on the driver.

    For ``inner`` / ``left`` ``lookup`` must be unique per key. An
    empty ``lookup`` needs no schema: a payload it does not type comes
    out null-typed. Output columns: big's columns + payload_cols."""
    import ray.data as rd

    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"key_join: unknown how={how!r}")
    payload_cols = list(payload_cols)
    lookup = lookup.materialize()
    if lookup.count() == 0:
        # Ray drops or keeps stale schemas on zero-row blocks: retype
        sch = lookup.schema()
        names = sch.names if sch is not None else []
        lookup = rd.from_arrow(pa.table({
            c: pa.array([], sch.base_schema.field(c).type
                        if c in names else pa.null())
            for c in [key_col, *payload_cols]}))
    if lookup.size_bytes() <= BROADCAST_BYTES:
        return broadcast_lookup_join(big, lookup, key_col, payload_cols,
                                     how)
    return sorted_lookup_join(big, lookup, key_col, payload_cols, how)


def broadcast_lookup_join(big, lookup, key_col, payload_cols, how):
    """``key_join``'s broadcast tier over a materialized ``lookup``."""
    import pyarrow.compute as pc
    import ray

    cols = [key_col, *payload_cols]
    tables = [t.select(cols) for t in ray.get(lookup.to_arrow_refs())
              if t.num_rows]
    lk = (pa.concat_tables(tables, promote_options="default") if tables
          else lookup.schema().base_schema.empty_table().select(cols))
    ref = ray.put({c: lk[c].combine_chunks() for c in cols})

    def probe(b: pa.Table) -> pa.Table:
        arrs = ray.get(ref)
        col = b[key_col].combine_chunks()
        idx = pc.index_in(col, value_set=arrs[key_col].cast(col.type))
        if how != "left":
            b = b.filter(pc.is_null(idx) if how == "anti"
                         else pc.is_valid(idx))
            idx = idx.drop_null()
        for p in payload_cols:
            if p in b.column_names:
                raise ValueError(f"key_join: payload column {p!r} "
                                 "is already in big")
            b = b.append_column(p, arrs[p].take(idx))
        return b

    return big.map_batches(probe, batch_size=None, batch_format="pyarrow")

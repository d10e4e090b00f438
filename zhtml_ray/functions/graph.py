"""Distributed web-graph operators over the extracted out-link table.

The reference's Document tracks a per-page ``links`` collection
(/root/reference/src/node.zig:28-33); at corpus scale the natural
consumers of that table are graph algorithms — link-based quality
priors (PageRank) and anchor-text signals. This module provides:

* :func:`resolve_edges_batch` — vectorized (url, href) → (src, dst)
  resolution (absolute http(s) hrefs as-is; root-relative hrefs
  against the source page's scheme+host; everything else dropped;
  fragments stripped; self-edges dropped), with the SAME RE2 rule
  text driving both the Arrow kernel and the generated DuckDB oracle
  (:func:`sql_edges_select`) — the differential gate compares two
  independent RE2 engines.
* :func:`pagerank` — damped PageRank with dangling-mass
  redistribution, run ENTIRELY in int64 arithmetic so the result is
  bit-identical across block layouts, schedules and engines: ranks
  are integers scaled by ``SCALE``; each edge contributes
  ``rank // outdeg``; int sums commute exactly, so no float pin is
  needed anywhere (the established float-oracle rules in
  BENCH/BASELINE.md become unnecessary by construction).

Scale design (the 100-TB story):

* edges / nodes / ranks never converge on the driver — distinct,
  out-degree and the per-iteration contribution sums are per-batch
  Arrow partials followed by Arrow-native groupby aggregates;
* each iteration's rank attach is a ``sorted_lookup_join`` (merge
  join as one range-shuffle sort — measured ~5× cheaper than hash
  ``Dataset.join`` on this Ray build, see stages/sortagg.py);
* per-iteration driver state is exactly TWO scalars (node count,
  dangling mass) from ``Dataset.aggregate``;
* a mega-in-degree host is a per-batch ``group_by(dst)`` partial, so
  its rows pre-combine inside every block before the shuffle; a
  mega-OUT-degree host repeats its key on the big side of the merge
  join, which ``sorted_bucket_apply`` chains across blocks.

Overflow bound: with ``SCALE = 10**9`` and damping 85/100, every
intermediate is ≤ 85 × total_mass ≈ 85 · V · SCALE, int64-safe to
V ≈ 10**8 nodes; shrink SCALE for a larger node set (the constant is
a parameter).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# single source of truth for the resolution rule — both the Arrow
# kernel and the DuckDB oracle are generated from these three strings
ABS_RE = r"^https?://"                    # href is already absolute
SCHEME_HOST_RE = r"^(https?://[^/?#]+)"   # page's scheme+host prefix
FRAG_RE = "#.*$"                          # fragment strip (applied 'g')

SCALE = 1_000_000_000


def resolve_dst(src: pa.ChunkedArray, href) -> pa.ChunkedArray:
    """Vectorized href resolution (the rule, mirrored exactly by
    :func:`sql_resolve_dst_expr`): absolute ``http(s)://`` hrefs are
    used as-is; hrefs starting with ``/`` resolve against the source
    page's scheme+host (pages whose url is not absolute http(s)
    resolve nothing); anything else (relative paths, empty, mailto:,
    javascript:) is null; fragments are stripped. Pure RE2, no Python
    per row. Self-edges are NOT dropped here — callers filter."""
    sh = pc.struct_field(
        pc.extract_regex(src, r"^(?P<sh>https?://[^/?#]+)"), "sh")
    is_abs = pc.match_substring_regex(href, ABS_RE)
    is_root = pc.starts_with(href, "/")
    rel = pc.binary_join_element_wise(sh, href, "")
    dst = pc.if_else(is_abs, href,
                     pc.if_else(is_root, rel, pa.scalar(None, pa.string())))
    return pc.replace_substring_regex(dst, FRAG_RE, "")


def sql_resolve_dst_expr(url_col: str = "url",
                         href_col: str = "href") -> str:
    """The DuckDB expression computing :func:`resolve_dst` (NULL where
    unresolvable), generated from the same rule text."""
    return f"""CASE WHEN regexp_matches({href_col}, '{ABS_RE}')
                THEN regexp_replace({href_col}, '{FRAG_RE}', '', 'g')
              WHEN {href_col} LIKE '/%'
                   AND regexp_extract({url_col}, '{SCHEME_HOST_RE}', 1) <> ''
                THEN regexp_extract({url_col}, '{SCHEME_HOST_RE}', 1)
                     || regexp_replace({href_col}, '{FRAG_RE}', '', 'g')
         END"""


def resolve_edges_batch(batch: pa.Table, url_col: str = "url",
                        href_col: str = "href") -> pa.Table:
    """(url, href) rows → distinct-within-batch (src, dst) edges:
    :func:`resolve_dst` + drop unresolvable and self-edges."""
    src = batch[url_col]
    dst = resolve_dst(src, batch[href_col])
    keep = pc.and_kleene(pc.is_valid(dst),
                         pc.not_equal(dst, src))
    t = pa.table({"src": src, "dst": dst}).filter(
        pc.fill_null(keep, False))
    # per-batch distinct pre-combine (group_by with no aggregates)
    return t.group_by(["src", "dst"]).aggregate([])


def sql_edges_select(links_sql: str) -> str:
    """DuckDB SELECT producing the same distinct (src, dst) edge set
    from a (url, href, ...) relation — the oracle side of
    :func:`resolve_edges_batch`, generated from the same rule text."""
    return f"""
SELECT DISTINCT src, dst FROM (
  SELECT url AS src, {sql_resolve_dst_expr()} AS dst
  FROM ({links_sql}))
WHERE dst IS NOT NULL AND dst <> src
"""


def link_edges(links_ds):
    """links Dataset (url, href, ...) → globally distinct (src, dst)
    edge Dataset: per-batch resolve+distinct partials, compacted, then
    one sort-based grouped-first pass (raw link rows never reach a
    global shuffle un-combined). The compaction is the CLAUDE.md
    O(blocks × partitions) rule applied at the source: the resolve map
    inherits the parse stage's ~200-block layout, and feeding that
    straight into the range sort measured 2.3 s where the same rows in
    10 compacted blocks sort in 0.36 s (sf0.1, r5)."""
    from zhtml_ray.stages.sortagg import sorted_first_per_group
    from zhtml_ray.stages.util import compact_blocks

    part = links_ds.map_batches(resolve_edges_batch,
                                batch_format="pyarrow")
    return sorted_first_per_group(compact_blocks(part), ["src", "dst"])


def pagerank(edges, iters: int = 5, scale: int = SCALE,
             damping: tuple[int, int] = (85, 100),
             driver_budget: int = 2_000_000,
             broadcast_budget: int = 20_000_000,
             partial_budget: int = 16_000_000):
    """Exact-integer damped PageRank with dangling redistribution.

    ``edges`` is a distinct (src, dst) Dataset. Returns a Dataset of
    (node, pagerank_scaled:int64) where ranks start at ``scale`` per
    node and each iteration computes, for damping d = num/den::

        r'(v) = ((den-num)*scale
                 + num * (sum_{u->v} r(u)//outdeg(u) + D//V)) // den

    with ``D`` the summed rank of dangling (no-out-edge) nodes and
    ``V`` the node count — all int64, so results are layout-,
    schedule- and engine-invariant with NO float pinning. ``//`` is
    truncating division; every operand is non-negative, so this
    equals floor division in Arrow, numpy and DuckDB alike.

    Three execution tiers, same integers (the budgeted-path pattern of
    ``label_propagation`` / the broadcast joins; a pytest runs all
    three over the same graph and asserts byte equality):

    * ``|edges| ≤ driver_budget`` — one in-process numpy run (each
      distributed round costs seconds of fixed orchestration, which
      dwarfs a million-edge vectorized loop: the staged form measured
      47 s where this path takes < 1 s at 200k edges);
    * ``V ≤ broadcast_budget`` — the classic big-edges/small-ranks
      plan: edges integer-coded ONCE against the broadcast sorted
      node array, then per iteration one pure map over coded edges +
      a (dst_idx → partial sum) merge that updates the driver-held
      rank vector (re-broadcast via ``ray.put``). When the per-block
      partials fit ``partial_budget`` rows (r5), the node set, the
      degree vector AND each iteration's contribution sums merge on
      the driver directly — ZERO shuffles after the edges-distinct
      (measured 2.5 → 0.9 s at 608k edges); past the budget each
      merge runs as the original ``sorted_sum_per_group`` shuffle.
    * else — fully distributed merge-join rounds: rank attach via
      ``sorted_lookup_join``, contribution sums as per-batch partials
      + Arrow-native groupby; per-iteration driver state is two
      scalars. This is the 10⁹-node tier where neither the node list
      nor the rank vector fits one machine."""
    import numpy as np
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from zhtml_ray.stages.sortagg import (sorted_first_per_group,
                                          sorted_lookup_join,
                                          sorted_sum_per_group)
    from zhtml_ray.stages.util import compact_blocks

    num, den = damping
    base_add = (den - num) * scale
    empty = pa.table({"node": pa.array([], pa.string()),
                      "pagerank_scaled": pa.array([], pa.int64())})

    edges = compact_blocks(edges)
    n_edges = edges.count()
    if n_edges == 0:
        return rd.from_arrow(empty)

    # ---- tier 1: in-process numpy under the driver budget -------------
    if n_edges <= driver_budget:
        tb = pa.concat_tables(list(edges.iter_batches(
            batch_size=None, batch_format="pyarrow")))
        s = np.asarray(tb["src"].to_pylist(), object)
        d = np.asarray(tb["dst"].to_pylist(), object)
        uniq, inv = np.unique(np.concatenate([s, d]),
                              return_inverse=True)
        scode, dcode = inv[:len(s)], inv[len(s):]
        v = len(uniq)
        odeg = np.bincount(scode, minlength=v).astype(np.int64)
        dang = odeg == 0
        r = np.full(v, scale, np.int64)
        for _ in range(iters):
            dshare = int(r[dang].sum()) // v
            insum = np.zeros(v, np.int64)
            np.add.at(insum, dcode, r[scode] // odeg[scode])
            r = (base_add + num * (insum + dshare)) // den
        return rd.from_arrow(pa.table({
            "node": pa.array(uniq.tolist(), pa.string()),
            "pagerank_scaled": pa.array(r, pa.int64())}))

    # ---- shared structure: per-block distinct-node partials -----------
    def col_nodes(col):
        def f(b: pa.Table) -> pa.Table:
            return pa.table({"node": b[col]}).group_by("node") \
                .aggregate([])
        return f

    np_ds = edges.map_batches(col_nodes("src"), batch_format="pyarrow") \
        .union(edges.map_batches(col_nodes("dst"),
                                 batch_format="pyarrow"))

    # r5 zero-shuffle fast path: everything tier 2 needs lands on the
    # driver anyway (node array + degree vector), so under a partial-
    # row budget collect the RAW per-block unique partials and
    # dedup / degree-sum in numpy — skipping the nodes range sort, the
    # odeg range sort, AND (below) the per-iteration contribution
    # sort. Measured at sf0.1 (608k edges): the sorted plan spent
    # ~2 s of its 2.5 s wall in these 7 shuffles. Over budget, the
    # original sorted plan runs unchanged (the budget-switch
    # convention of label_propagation / the broadcast joins).
    node_arr = None
    nodes = odeg_ds = None
    if partial_budget:
        chunks, rows = [], 0
        for t in np_ds.iter_batches(batch_size=None,
                                    batch_format="pyarrow"):
            rows += t.num_rows
            if rows > partial_budget:
                chunks = None
                break
            chunks.append(t)
        if chunks is not None:
            node_arr = np.unique(np.asarray(
                pa.concat_tables(chunks)["node"].to_pylist(), object)) \
                if rows else np.asarray([], object)
            v_count = len(node_arr)
    def build_sorted_structures():
        nodes = compact_blocks(sorted_first_per_group(np_ds, ["node"]))

        def deg_part(b: pa.Table) -> pa.Table:
            g = b.group_by("src").aggregate([("dst", "count")])
            return g.rename_columns(["node", "d"])

        def _rn(b: pa.Table) -> pa.Table:
            return b.rename_columns(["node", "odeg"])

        # sorted_sum, not groupby().aggregate(): Ray's Aggregate
        # measured ~8× slower on high-cardinality keys
        # (BENCH/BASELINE.md)
        odeg_ds = sorted_sum_per_group(
            edges.map_batches(deg_part, batch_format="pyarrow"),
            ["node"], ["d"]).map_batches(_rn, batch_format="pyarrow")
        return nodes, odeg_ds

    if node_arr is None:
        nodes, odeg_ds = build_sorted_structures()
        v_count = nodes.count()

    # ---- tier 2: broadcast ranks, coded edges ------------------------
    if v_count <= broadcast_budget:
        fast = node_arr is not None
        if not fast:
            node_arr = np.asarray(
                pa.concat_tables(list(nodes.iter_batches(
                    batch_size=None,
                    batch_format="pyarrow")))["node"].to_pylist(),
                object)
            node_arr.sort()
        nref = ray.put(node_arr)

        def code(b: pa.Table) -> pa.Table:
            na = ray.get(nref)
            si = np.searchsorted(na, np.asarray(b["src"].to_pylist(),
                                                object))
            di = np.searchsorted(na, np.asarray(b["dst"].to_pylist(),
                                                object))
            return pa.table({"si": pa.array(si, pa.int64()),
                             "di": pa.array(di, pa.int64())})

        coded = compact_blocks(edges.map_batches(
            code, batch_format="pyarrow"))
        v = len(node_arr)
        if fast:
            # degree vector from ONE pass over the coded edges:
            # per-block bincount partials (si is unique per block
            # output), merged with a driver scatter-add — no shuffle
            def deg_code(b: pa.Table) -> pa.Table:
                u, c = np.unique(
                    b["si"].to_numpy(zero_copy_only=False),
                    return_counts=True)
                return pa.table({"si": pa.array(u, pa.int64()),
                                 "c": pa.array(c, pa.int64())})

            odeg_vec = np.zeros(v, np.int64)
            for t in coded.map_batches(
                    deg_code, batch_format="pyarrow").iter_batches(
                    batch_size=None, batch_format="pyarrow"):
                if t.num_rows:
                    np.add.at(odeg_vec,
                              t["si"].to_numpy(zero_copy_only=False),
                              t["c"].to_numpy(zero_copy_only=False))
        else:
            odeg_vec = np.zeros(v, np.int64)
            ot = pa.concat_tables(list(odeg_ds.iter_batches(
                batch_size=None, batch_format="pyarrow")))
            if ot.num_rows:
                pos = np.searchsorted(
                    node_arr, np.asarray(ot["node"].to_pylist(),
                                         object))
                odeg_vec[pos] = ot["odeg"].to_numpy(
                    zero_copy_only=False)
        oref = ray.put(odeg_vec)
        dang = odeg_vec == 0
        r = np.full(v, scale, np.int64)
        for _ in range(iters):
            dshare = int(r[dang].sum()) // v
            rref = ray.put(r)

            def part(b: pa.Table, rref=rref) -> pa.Table:
                rr, ov = ray.get(rref), ray.get(oref)
                si = b["si"].to_numpy(zero_copy_only=False)
                di = b["di"].to_numpy(zero_copy_only=False)
                contrib = rr[si] // ov[si]
                u, inv2 = np.unique(di, return_inverse=True)
                cs = np.zeros(len(u), np.int64)
                np.add.at(cs, inv2, contrib)
                return pa.table({"di": pa.array(u, pa.int64()),
                                 "c": pa.array(cs, pa.int64())})

            pds = coded.map_batches(part, batch_format="pyarrow")
            insum = np.zeros(v, np.int64)
            if fast and n_edges <= partial_budget:
                # per-iteration partials merge on the driver (≤ E
                # rows, usually ≪) — no shuffle in the loop at all
                for t in pds.iter_batches(batch_size=None,
                                          batch_format="pyarrow"):
                    if t.num_rows:
                        np.add.at(
                            insum,
                            t["di"].to_numpy(zero_copy_only=False),
                            t["c"].to_numpy(zero_copy_only=False))
            else:
                it = sorted_sum_per_group(pds, ["di"], ["c"])
                st = pa.concat_tables(list(it.iter_batches(
                    batch_size=None, batch_format="pyarrow")))
                if st.num_rows:
                    insum[st["di"].to_numpy(zero_copy_only=False)] = \
                        st["c"].to_numpy(zero_copy_only=False)
            r = (base_add + num * (insum + dshare)) // den
        return rd.from_arrow(pa.table({
            "node": pa.array(node_arr.tolist(), pa.string()),
            "pagerank_scaled": pa.array(r, pa.int64())}))

    # ---- tier 3: fully distributed merge-join rounds -------------------
    if nodes is None:
        # the fast-path collect succeeded but broadcast_budget still
        # rejected tier 2 (small-budget configs / tier tests): tier 3
        # needs the sorted node/degree datasets after all
        nodes, odeg_ds = build_sorted_structures()
    nd = sorted_lookup_join(nodes, odeg_ds, "node", ["odeg"],
                            how="left")

    def fill_deg(b: pa.Table) -> pa.Table:
        return pa.table({
            "node": b["node"],
            "odeg": pc.fill_null(pc.cast(b["odeg"], pa.int64()), 0)})

    nd = compact_blocks(nd.map_batches(fill_deg, batch_format="pyarrow"))

    def init_rank(b: pa.Table) -> pa.Table:
        import numpy as _np
        return b.append_column(
            "r", pa.array(_np.full(b.num_rows, scale, _np.int64)))

    rank = compact_blocks(nd.map_batches(init_rank,
                                         batch_format="pyarrow"))

    def edge_key(b: pa.Table) -> pa.Table:
        return b.rename_columns(["node", "dst"])

    ekey = compact_blocks(edges.map_batches(edge_key,
                                            batch_format="pyarrow"))

    for _ in range(iters):
        # two driver scalars per round: dangling mass + node count
        def dang_part(b: pa.Table) -> pa.Table:
            m = pc.equal(b["odeg"], 0)
            s = pc.sum(b.filter(m)["r"]).as_py() or 0
            return pa.table({"dm": pa.array([s], pa.int64())})

        got = rank.map_batches(dang_part, batch_format="pyarrow") \
            .aggregate(Sum("dm", alias_name="dm"))
        dshare = (got["dm"] or 0) // v_count

        # ONE merge join per round fetches both the static out-degree
        # and the round's rank from the same lookup table
        joined = sorted_lookup_join(ekey, rank, "node", ["odeg", "r"])

        def contrib(b: pa.Table) -> pa.Table:
            c = pc.divide(b["r"], b["odeg"])  # trunc = floor (r ≥ 0)
            t = pa.table({"node": b["dst"], "c": c})
            g = t.group_by("node").aggregate([("c", "sum")])
            return g.rename_columns(["node", "c"])

        insum = sorted_sum_per_group(
            joined.map_batches(contrib, batch_format="pyarrow"),
            ["node"], ["c"]).map_batches(
                lambda b: b.rename_columns(["node", "s"]),
                batch_format="pyarrow")
        nxt = sorted_lookup_join(nd, insum, "node", ["s"], how="left")

        def step(b: pa.Table) -> pa.Table:
            s = pc.fill_null(pc.cast(b["s"], pa.int64()), 0)
            r = pc.divide(
                pc.add(pa.scalar(base_add, pa.int64()),
                       pc.multiply(pa.scalar(num, pa.int64()),
                                   pc.add(s, pa.scalar(dshare,
                                                       pa.int64())))),
                pa.scalar(den, pa.int64()))
            return pa.table({"node": b["node"], "odeg": b["odeg"],
                             "r": r})

        rank = compact_blocks(nxt.map_batches(step,
                                              batch_format="pyarrow"))

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({"node": b["node"], "pagerank_scaled": b["r"]})

    return rank.map_batches(finish, batch_format="pyarrow")


HITS_SCALE = 10_000  # hub/auth live in [0, 1e4]; raw sums ≤ V·SCALE,
# rescale multiplies by SCALE again: V·SCALE² ≤ 2^63 ⇒ V ≤ 9·10^10


def hits(edges, iters: int = 3, scale: int = HITS_SCALE,
         driver_budget: int = 2_000_000,
         broadcast_budget: int = 20_000_000):
    """Exact-integer HITS hubs & authorities (Kleinberg 1999).

    ``edges`` is a distinct (src, dst) Dataset. Hubs start at
    ``scale``; each iteration computes, all in int64::

        a_raw(v) = Σ_{u→v} h(u);  a(v) = a_raw(v)·scale // max(a_raw)
        h_raw(u) = Σ_{u→v} a(v);  h(u) = h_raw(u)·scale // max(h_raw)

    The usual L2 normalization is replaced by max-rescaling with
    truncating integer division — every operand is a non-negative
    int64, so the result is layout-, schedule- and engine-invariant
    with NO float pin (the :func:`pagerank` rule). Both ``max`` terms
    are floored at 1 (identically in SQL via ``greatest(…, 1)``) so a
    degenerate round cannot divide by zero. Returns (node,
    hub_scaled, auth_scaled).

    Three tiers, same integers (pytest-asserted byte-equal — the
    :func:`pagerank` tier design): an in-process numpy run under
    ``driver_budget`` edges; under ``broadcast_budget`` NODES the
    classic big-edges/small-vectors plan — edges integer-coded ONCE
    against the broadcast sorted node array, then each half-round is
    one pure map over coded edges + one ≤ V-row run-sum updating the
    driver-held vector (no joins, no string sorts in the loop —
    measured 58 s → 13.6 s at 3M edges / 300k nodes vs the merge-join
    tier); else fully distributed rounds — per half-round ONE merge
    join attaches the current vector to the edge table keyed by the
    summing side (src for authorities, dst for hubs), per-batch
    group_by partials pre-combine before a vocabulary-bounded
    run-sum, and the only driver state is the round's max scalar."""
    import numpy as np
    import ray.data as rd

    from zhtml_ray.stages.sortagg import (sorted_first_per_group,
                                          sorted_lookup_join,
                                          sorted_sum_per_group)
    from zhtml_ray.stages.util import compact_blocks

    empty = pa.table({"node": pa.array([], pa.string()),
                      "hub_scaled": pa.array([], pa.int64()),
                      "auth_scaled": pa.array([], pa.int64())})
    edges = compact_blocks(edges)
    if edges.count() == 0:
        return rd.from_arrow(empty)

    if edges.count() <= driver_budget:
        tb = pa.concat_tables(list(edges.iter_batches(
            batch_size=None, batch_format="pyarrow")))
        s = np.asarray(tb["src"].to_pylist(), object)
        d = np.asarray(tb["dst"].to_pylist(), object)
        uniq, inv = np.unique(np.concatenate([s, d]),
                              return_inverse=True)
        scode, dcode = inv[:len(s)], inv[len(s):]
        v = len(uniq)
        h = np.full(v, scale, np.int64)
        a = np.zeros(v, np.int64)
        for _ in range(iters):
            ar = np.zeros(v, np.int64)
            np.add.at(ar, dcode, h[scode])
            a = ar * scale // max(int(ar.max()), 1)
            hr = np.zeros(v, np.int64)
            np.add.at(hr, scode, a[dcode])
            h = hr * scale // max(int(hr.max()), 1)
        return rd.from_arrow(pa.table({
            "node": pa.array(uniq.tolist(), pa.string()),
            "hub_scaled": pa.array(h, pa.int64()),
            "auth_scaled": pa.array(a, pa.int64())}))

    # ---- distributed tier ---------------------------------------------
    def col_nodes(col):
        def f(b: pa.Table) -> pa.Table:
            return pa.table({"node": b[col]}).group_by("node") \
                .aggregate([])
        return f

    nodes = compact_blocks(sorted_first_per_group(
        edges.map_batches(col_nodes("src"), batch_format="pyarrow")
        .union(edges.map_batches(col_nodes("dst"),
                                 batch_format="pyarrow")),
        ["node"]))

    # ---- tier 2: broadcast vectors, coded edges, no joins in the loop --
    if nodes.count() <= broadcast_budget:
        import ray

        node_arr = np.asarray(
            pa.concat_tables(list(nodes.iter_batches(
                batch_size=None,
                batch_format="pyarrow")))["node"].to_pylist(), object)
        node_arr.sort()
        nref = ray.put(node_arr)

        def code(b: pa.Table) -> pa.Table:
            na = ray.get(nref)
            si = np.searchsorted(na, np.asarray(b["src"].to_pylist(),
                                                object))
            di = np.searchsorted(na, np.asarray(b["dst"].to_pylist(),
                                                object))
            return pa.table({"si": pa.array(si, pa.int64()),
                             "di": pa.array(di, pa.int64())})

        coded = compact_blocks(edges.map_batches(
            code, batch_format="pyarrow")).materialize()
        v = len(node_arr)

        def fold(vec_ref, src_col, dst_col):
            """One half-round: Σ over edges of vec[src] into dst
            groups — per-batch int64 bincount partial, ≤ V-row
            run-sum, driver scatter + max-rescale."""
            def part(b: pa.Table) -> pa.Table:
                vv = ray.get(vec_ref)
                si = b[src_col].to_numpy(zero_copy_only=False)
                di = b[dst_col].to_numpy(zero_copy_only=False)
                u, inv2 = np.unique(di, return_inverse=True)
                cs = np.zeros(len(u), np.int64)
                np.add.at(cs, inv2, vv[si])
                return pa.table({"di": pa.array(u, pa.int64()),
                                 "c": pa.array(cs, pa.int64())})

            it = sorted_sum_per_group(
                coded.map_batches(part, batch_format="pyarrow"),
                ["di"], ["c"])
            raw = np.zeros(v, np.int64)
            st = pa.concat_tables(list(it.iter_batches(
                batch_size=None, batch_format="pyarrow")))
            if st.num_rows:
                raw[st["di"].to_numpy(zero_copy_only=False)] = \
                    st["c"].to_numpy(zero_copy_only=False)
            return raw * scale // max(int(raw.max()), 1)

        h = np.full(v, scale, np.int64)
        a = np.zeros(v, np.int64)
        for _ in range(iters):
            a = fold(ray.put(h), "si", "di")
            h = fold(ray.put(a), "di", "si")
        return rd.from_arrow(pa.table({
            "node": pa.array(node_arr.tolist(), pa.string()),
            "hub_scaled": pa.array(h, pa.int64()),
            "auth_scaled": pa.array(a, pa.int64())}))

    def half_step(vec, key_col, other_col):
        """One HITS half-round: attach ``vec`` (node → x) to edges on
        ``key_col``, sum x into ``other_col`` groups, fill misses
        with 0, max-rescale. Returns the new (node, x) Dataset."""
        from ray.data.aggregate import Max

        ek = edges.map_batches(
            lambda b, k=key_col, o=other_col: pa.table(
                {"node": b[k], "tgt": b[o]}),
            batch_format="pyarrow")
        j = sorted_lookup_join(compact_blocks(ek), vec, "node", ["x"])

        def part(b: pa.Table) -> pa.Table:
            g = pa.table({"node": b["tgt"], "x": b["x"]}) \
                .group_by("node").aggregate([("x", "sum")])
            return g.rename_columns(["node", "x"])

        sums = sorted_sum_per_group(
            j.map_batches(part, batch_format="pyarrow"),
            ["node"], ["x"])
        raw = compact_blocks(sorted_lookup_join(
            nodes, sums, "node", ["x"], how="left").map_batches(
                lambda b: pa.table({
                    "node": b["node"],
                    "x": pc.fill_null(pc.cast(b["x"], pa.int64()),
                                      0)}),
                batch_format="pyarrow")).materialize()
        mx = max(int(raw.aggregate(Max("x", alias_name="m"))["m"]
                     or 0), 1)
        return compact_blocks(raw.map_batches(
            lambda b, mx=mx: pa.table({
                "node": b["node"],
                "x": pc.divide(pc.multiply(
                    b["x"], pa.scalar(scale, pa.int64())),
                    pa.scalar(mx, pa.int64()))}),
            batch_format="pyarrow"))

    hvec = compact_blocks(nodes.map_batches(
        lambda b: b.append_column(
            "x", pa.array(np.full(b.num_rows, scale, np.int64))),
        batch_format="pyarrow"))
    avec = None
    for _ in range(iters):
        avec = half_step(hvec, "src", "dst")
        hvec = half_step(avec, "dst", "src")

    out = sorted_lookup_join(
        hvec.map_batches(lambda b: b.rename_columns(["node", "h"]),
                         batch_format="pyarrow"),
        avec.map_batches(lambda b: b.rename_columns(["node", "a"]),
                         batch_format="pyarrow"),
        "node", ["a"])
    return out.map_batches(
        lambda b: pa.table({"node": b["node"], "hub_scaled": b["h"],
                            "auth_scaled": pc.cast(b["a"],
                                                   pa.int64())}),
        batch_format="pyarrow")


def sql_hits(links_sql: str, iters: int = 3,
             scale: int = HITS_SCALE) -> str:
    """Unrolled-iteration DuckDB oracle for :func:`hits` — same int64
    arithmetic, independently executed (DuckDB hash joins vs the
    engine's sort-based merge plan). Every CTE is MATERIALIZED: each
    level references the previous one twice, so DuckDB's default
    inlining re-expands the chain EXPONENTIALLY (2^(4·iters) edge
    scans — at sf0.1's 608k edges the r4 gate filled a 37 GiB spill
    dir and died; materialized, the whole oracle is linear and
    in-memory)."""
    parts = [f"WITH edges AS MATERIALIZED ({sql_edges_select(links_sql)}),",
             """nodes AS MATERIALIZED (SELECT src AS node FROM edges
          UNION SELECT dst FROM edges),""",
             f"h0 AS MATERIALIZED (SELECT node, {scale}::BIGINT AS h "
             "FROM nodes)"]
    for k in range(1, iters + 1):
        parts.append(f""",
ar{k} AS MATERIALIZED (SELECT n.node, coalesce(i.s, 0)::BIGINT AS ar
  FROM nodes n LEFT JOIN
    (SELECT e.dst AS node, sum(ph.h)::BIGINT AS s
     FROM edges e JOIN h{k - 1} ph ON e.src = ph.node
     GROUP BY e.dst) i USING (node)),
a{k} AS MATERIALIZED (SELECT node, ar * {scale}::BIGINT
              // greatest((SELECT max(ar) FROM ar{k}), 1) AS a
         FROM ar{k}),
hr{k} AS MATERIALIZED (SELECT n.node, coalesce(i.s, 0)::BIGINT AS hr
  FROM nodes n LEFT JOIN
    (SELECT e.src AS node, sum(pa2.a)::BIGINT AS s
     FROM edges e JOIN a{k} pa2 ON e.dst = pa2.node
     GROUP BY e.src) i USING (node)),
h{k} AS MATERIALIZED (SELECT node, hr * {scale}::BIGINT
              // greatest((SELECT max(hr) FROM hr{k}), 1) AS h
         FROM hr{k})""")
    parts.append(f"""
SELECT h{iters}.node, h{iters}.h AS hub_scaled, a{iters}.a AS auth_scaled
FROM h{iters} JOIN a{iters} USING (node)""")
    return "".join(parts)


def degree_histogram(edges):
    """Degree-distribution histogram of a distinct (src, dst) edge
    Dataset: (direction 'out'|'in', degree, n_nodes), zero-degree
    nodes included (a node with no out-links still counts in the
    out-degree-0 bucket).

    The zero bucket never joins: a node has out-degree 0 exactly when
    it is absent from the out-degree table, so its count is the SCALAR
    ``V − |deg table|`` — two driver integers replace the two
    node-set ``sorted_lookup_join``s of the first version (measured
    31.9 s → the joins were 2 of the 5 exchanges at 2M edges). What
    remains: per-batch degree partials → node-bounded groupby per
    direction, one tiny sort over the ≤ 2V degree-table keys for the
    node count, and ≤ #distinct-degrees histogram groupbys."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from zhtml_ray.stages.sortagg import (sorted_first_per_group,
                                          sorted_sum_per_group)
    from zhtml_ray.stages.util import compact_blocks

    empty = pa.table({"direction": pa.array([], pa.string()),
                      "degree": pa.array([], pa.int64()),
                      "n_nodes": pa.array([], pa.int64())})

    def deg_part(b: pa.Table) -> pa.Table:
        """Both directions' degree partials from ONE pass over the
        edges — the edge read happens exactly once."""
        outs = []
        for direction, col in (("out", "src"), ("in", "dst")):
            g = b.group_by(col).aggregate([(col, "count")]) \
                .rename_columns(["node", "deg"])
            outs.append(g.append_column(
                "direction",
                pa.array([direction] * g.num_rows, pa.string())))
        return pa.concat_tables(outs)

    # sorted_sum, not groupby().aggregate(): Ray's Aggregate measured
    # 14.8 s vs 1.8 s for the range-sort form on this exact shape
    # (1.75M partial rows, 200k string keys — BENCH/BASELINE.md)
    deg = sorted_sum_per_group(
        compact_blocks(edges).map_batches(deg_part,
                                          batch_format="pyarrow"),
        ["direction", "node"], ["deg"]).materialize()
    if deg.count() == 0:
        return rd.from_arrow(empty)

    # V = |distinct node over the deg table| — it already holds every
    # node that appears in any edge, so the distinct runs over ≤ 2V
    # rows, never over per-batch edge partials
    v_count = sorted_first_per_group(
        deg.select_columns(["node"]), ["node"]).count()

    def hist_part(b: pa.Table) -> pa.Table:
        g = pa.table({"direction": b["direction"],
                      "degree": pc.cast(b["deg"], pa.int64())}) \
            .group_by(["direction", "degree"]) \
            .aggregate([("degree", "count")])
        return g.rename_columns(["direction", "degree", "c"])

    h = deg.map_batches(hist_part, batch_format="pyarrow") \
        .groupby(["direction", "degree"]) \
        .aggregate(Sum("c", alias_name="n_nodes")).materialize()

    # zero-degree buckets never join: a node has degree 0 in a
    # direction exactly when it is absent from that direction's rows,
    # so the count is the scalar V − Σ(that direction's histogram)
    nnz = {"out": 0, "in": 0}
    for b in h.iter_batches(batch_size=None, batch_format="pyarrow"):
        t = pa.table({"direction": b["direction"], "n": b["n_nodes"]}) \
            .group_by("direction").aggregate([("n", "sum")])
        for d, n in zip(t["direction"].to_pylist(),
                        t["n_sum"].to_pylist()):
            nnz[d] += n
    zeros = [(d, 0, v_count - n) for d, n in nnz.items()
             if v_count - n > 0]
    if zeros:
        zt = pa.table({
            "direction": pa.array([z[0] for z in zeros], pa.string()),
            "degree": pa.array([z[1] for z in zeros], pa.int64()),
            "n_nodes": pa.array([z[2] for z in zeros], pa.int64())})
        h = h.union(rd.from_arrow(zt))
    return h


def sql_degree_histogram(links_sql: str) -> str:
    """DuckDB oracle for :func:`degree_histogram` over the edge set of
    ``sql_edges_select(links_sql)``."""
    return f"""
WITH edges AS ({sql_edges_select(links_sql)}),
nodes AS (SELECT src AS node FROM edges UNION SELECT dst FROM edges),
od AS (SELECT n.node, coalesce(o.c, 0)::BIGINT AS deg
       FROM nodes n LEFT JOIN (SELECT src, count(*)::BIGINT AS c
                               FROM edges GROUP BY 1) o
       ON n.node = o.src),
id AS (SELECT n.node, coalesce(i.c, 0)::BIGINT AS deg
       FROM nodes n LEFT JOIN (SELECT dst, count(*)::BIGINT AS c
                               FROM edges GROUP BY 1) i
       ON n.node = i.dst)
SELECT 'out' AS direction, deg AS degree, count(*)::BIGINT AS n_nodes
FROM od GROUP BY 2
UNION ALL
SELECT 'in', deg, count(*)::BIGINT FROM id GROUP BY 2
"""


def sql_pagerank(links_sql: str, iters: int = 5, scale: int = SCALE,
                 damping: tuple[int, int] = (85, 100)) -> str:
    """Unrolled-iteration DuckDB oracle for :func:`pagerank` over the
    edge set of ``sql_edges_select(links_sql)`` — same int64
    arithmetic, independently executed (DuckDB's joins/aggregates vs
    the engine's sort-based shuffle plan)."""
    num, den = damping
    # MATERIALIZED CTEs: every r{k} references r{k-1} twice (dangling
    # scalar subquery + contribution join); DuckDB's default inlining
    # re-expands the chain exponentially (the r5 link_hits lesson —
    # this oracle OOM'd a 37 GiB spill dir at sf0.1's 608k edges)
    parts = [f"WITH edges AS MATERIALIZED ({sql_edges_select(links_sql)}),",
             """nodes AS MATERIALIZED (SELECT src AS node FROM edges
          UNION SELECT dst FROM edges),
odeg AS MATERIALIZED (SELECT src AS node, count(*)::BIGINT AS odeg
         FROM edges GROUP BY 1),
nd AS MATERIALIZED (SELECT n.node, coalesce(o.odeg, 0)::BIGINT AS odeg
       FROM nodes n LEFT JOIN odeg o USING (node)),
nv AS MATERIALIZED (SELECT count(*)::BIGINT AS v FROM nd),""",
             f"r0 AS MATERIALIZED (SELECT node, odeg, "
             f"{scale}::BIGINT AS r FROM nd)"]
    for k in range(1, iters + 1):
        parts.append(f""",
r{k} AS MATERIALIZED (
  SELECT nd.node, nd.odeg,
         (({den - num}::BIGINT * {scale}::BIGINT)
          + {num}::BIGINT * (coalesce(i.s, 0)
             + (SELECT coalesce(sum(r), 0)::BIGINT FROM r{k - 1}
                WHERE odeg = 0) // (SELECT v FROM nv))) // {den}::BIGINT
             AS r
  FROM nd
  LEFT JOIN (SELECT e.dst AS node, sum(pr.r // pr.odeg)::BIGINT AS s
             FROM edges e JOIN r{k - 1} pr ON e.src = pr.node
             GROUP BY e.dst) i USING (node))""")
    parts.append(f"\nSELECT node, r AS pagerank_scaled FROM r{iters}")
    return "".join(parts)


# ---------------------------------------------------------------- triangles

_WSEP = "\x1f"  # unit separator — cannot appear in a resolved http(s) url


def triangle_stats(edges):
    """Exact triangle and wedge counts of the UNDIRECTED graph beneath
    a distinct directed (src, dst) edge Dataset — the global clustering
    ingredients (transitivity = 3·triangles / wedges; link-farm and
    mutual-citation cliques show up as a triangle excess long before
    they dominate PageRank). Returns a one-row Dataset
    ``(n_triangles:int64, n_wedges:int64)``; both are exact integers,
    so the result is layout/schedule-invariant with no float pin.

    Plan (compact-forward / degree orientation — the classic bound
    that keeps a power-law graph tractable):

    * canonicalize to distinct undirected edges ``(a < b)`` —
      per-batch ``min/max_element_wise`` partials, one grouped-first;
    * undirected degree per node via :func:`sorted_sum_per_group`;
    * orient every edge from the (deg, node)-smaller endpoint to the
      larger: every node's oriented out-degree is O(√m), so the wedge
      candidate volume is Σ d_out² = O(m^1.5) worst case instead of
      Σ d² (a 10⁶-degree hub contributes ~10³ oriented neighbors,
      not 10¹² pairs);
    * per-source wedge pairs in ONE :func:`sorted_bucket_apply` pass —
      pair indices are built by pure integer ``repeat``/``cumsum``
      vectors (no per-run Python), each pair re-oriented by
      (deg, node) so its key equals the oriented edge key;
    * triangle = wedge key present in the oriented edge set: one
      :func:`sorted_lookup_join` semi-join, count matched rows.

    Wedges (paths of length 2) are Σ d·(d−1)/2 over undirected
    degrees — a per-block partial sum over the degree table, two
    scalars on the driver. int64-safe to d ≈ 4.3·10⁹.
    """
    import numpy as np
    import ray.data as rd

    from zhtml_ray.stages.sortagg import (sorted_bucket_apply,
                                          sorted_first_per_group,
                                          sorted_lookup_join,
                                          sorted_sum_per_group)
    from zhtml_ray.stages.util import compact_blocks

    out_schema = pa.table({"n_triangles": pa.array([0], pa.int64()),
                           "n_wedges": pa.array([0], pa.int64())})

    def canon(b: pa.Table) -> pa.Table:
        a = pc.min_element_wise(b["src"], b["dst"])
        bb = pc.max_element_wise(b["src"], b["dst"])
        t = pa.table({"a": a, "b": bb}).filter(pc.not_equal(a, bb))
        return t.group_by(["a", "b"]).aggregate([])

    und = compact_blocks(sorted_first_per_group(
        edges.map_batches(canon, batch_format="pyarrow"), ["a", "b"]))
    if und.count() == 0:
        return rd.from_arrow(out_schema)

    def deg_part(b: pa.Table) -> pa.Table:
        nodes = pa.chunked_array([b["a"].combine_chunks(),
                                  b["b"].combine_chunks()])
        g = pa.table({"node": nodes}).group_by("node") \
            .aggregate([("node", "count")])
        return g.rename_columns(["node", "deg"])

    deg = compact_blocks(sorted_sum_per_group(
        und.map_batches(deg_part, batch_format="pyarrow"),
        ["node"], ["deg"]))

    # n_wedges = Σ d·(d−1)/2 — per-block int partials, driver sums
    def wedge_part(b: pa.Table) -> pa.Table:
        d = b["deg"].to_numpy(zero_copy_only=False).astype(object)
        return pa.table({"w": pa.array([int((d * (d - 1) // 2).sum())],
                                       pa.int64())})

    n_wedges = int(deg.map_batches(
        wedge_part, batch_size=None, batch_format="pyarrow").sum("w")
        or 0)

    def rn(names):
        return lambda b: b.rename_columns(names)

    dega = deg.map_batches(rn(["a", "deg_a"]), batch_format="pyarrow")
    degb = deg.map_batches(rn(["b", "deg_b"]), batch_format="pyarrow")
    e1 = compact_blocks(sorted_lookup_join(und, dega, "a", ["deg_a"]))
    e2 = compact_blocks(sorted_lookup_join(e1, degb, "b", ["deg_b"]))

    def orient(b: pa.Table) -> pa.Table:
        """(a, b, deg_a, deg_b) → (u, v, dv): u precedes v in the
        (deg, node) total order. a < b lexically, so a deg tie keeps
        (a → b) — exactly 'node breaks degree ties'."""
        da = b["deg_a"].to_numpy(zero_copy_only=False)
        db = b["deg_b"].to_numpy(zero_copy_only=False)
        swap = pa.array(db < da)
        u = pc.if_else(swap, b["b"], b["a"])
        v = pc.if_else(swap, b["a"], b["b"])
        dv = pc.if_else(swap, b["deg_a"], b["deg_b"])
        return pa.table({"u": u, "v": v, "dv": dv})

    oriented = e2.map_batches(orient, batch_format="pyarrow")

    def edge_keys(b: pa.Table) -> pa.Table:
        k = pc.binary_join_element_wise(b["u"], b["v"], _WSEP)
        return pa.table({"wkey": k,
                         "one": pa.nulls(b.num_rows, pa.int8())})

    okeys = compact_blocks(oriented.map_batches(edge_keys,
                                                batch_format="pyarrow"))

    def wedge_pairs(b: pa.Table, starts, ends) -> pa.Table:
        """All (i < j) index pairs within each run, pure integer
        vectors: a row at within-run position k is the SECOND element
        of k pairs whose firsts are the k rows before it."""
        v = b["v"].combine_chunks()
        dv = b["dv"].combine_chunks().to_numpy(zero_copy_only=False)
        n = b.num_rows
        rep = np.arange(n) - np.repeat(starts, ends - starts)
        tot = int(rep.sum())
        if tot == 0:
            return pa.table({"wkey": pa.array([], pa.string()),
                             "one": pa.array([], pa.int8())})
        j_idx = np.repeat(np.arange(n, dtype=np.int64), rep)
        t = np.arange(tot, dtype=np.int64) - np.repeat(
            np.r_[np.int64(0), np.cumsum(rep)[:-1]], rep)
        i_idx = j_idx - np.repeat(rep, rep) + t
        vi = v.take(pa.array(i_idx))
        vj = v.take(pa.array(j_idx))
        swap = pa.array(dv[j_idx] < dv[i_idx])
        # deg tie → lexical node order (vi, vj sorted by v inside the
        # run, so i < j already means vi < vj on ties)
        lo = pc.if_else(swap, vj, vi)
        hi = pc.if_else(swap, vi, vj)
        return pa.table({"wkey": pc.binary_join_element_wise(
            lo, hi, _WSEP), "one": pa.nulls(tot, pa.int8())})

    empty_pairs = pa.table({"wkey": pa.array([], pa.string()),
                            "one": pa.array([], pa.int8())})

    wedge_keys = compact_blocks(sorted_bucket_apply(
        oriented, "u", ["u", "v"], wedge_pairs, empty_pairs))

    if wedge_keys.count() == 0:
        n_tri = 0
    else:
        n_tri = sorted_lookup_join(
            wedge_keys.select_columns(["wkey"]), okeys, "wkey",
            ["one"], how="inner").count()

    return rd.from_arrow(pa.table({
        "n_triangles": pa.array([n_tri], pa.int64()),
        "n_wedges": pa.array([n_wedges], pa.int64())}))


def sql_triangle_stats(links_sql: str) -> str:
    """DuckDB oracle for :func:`triangle_stats` — an INDEPENDENT plan
    (three-way self-join on the canonical a<b edge set; the engine
    never materializes that join) over ``sql_edges_select``'s edges."""
    return f"""
WITH edges AS ({sql_edges_select(links_sql)}),
e AS (SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
      FROM edges WHERE src <> dst),
deg AS (SELECT node, count(*)::BIGINT AS d FROM
        (SELECT a AS node FROM e UNION ALL SELECT b FROM e)
        GROUP BY node)
SELECT
  (SELECT count(*)::BIGINT FROM e e1
     JOIN e e2 ON e2.a = e1.a AND e2.b > e1.b
     JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b) AS n_triangles,
  (SELECT coalesce(sum(d * (d - 1) // 2), 0)::BIGINT FROM deg)
      AS n_wedges
"""


# ------------------------------------------------------------- crawl depth

def indegree_zero_seeds(edges):
    """Crawl entry points: nodes that appear as a source but never as
    a destination — per-batch (node, is_dst) flag partials, one sorted
    run-sum, filter sum == 0. One exchange over ≤ |V| pre-combined
    rows; the raw edge table never shuffles un-combined."""
    from zhtml_ray.stages.sortagg import sorted_sum_per_group
    from zhtml_ray.stages.util import compact_blocks

    def flag_part(b: pa.Table) -> pa.Table:
        t = pa.table({
            "node": pa.chunked_array([b["src"].combine_chunks(),
                                      b["dst"].combine_chunks()]),
            "is_dst": pa.chunked_array([
                pa.nulls(b.num_rows, pa.int64()).fill_null(0),
                pa.nulls(b.num_rows, pa.int64()).fill_null(1)])})
        g = t.group_by("node").aggregate([("is_dst", "sum")])
        return g.rename_columns(["node", "is_dst"])

    def keep_sources_only(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["is_dst"], 0))
        return pa.table({"node": t["node"]})

    flags = sorted_sum_per_group(
        edges.map_batches(flag_part, batch_format="pyarrow"),
        ["node"], ["is_dst"])
    return compact_blocks(flags.map_batches(keep_sources_only,
                                            batch_format="pyarrow"))


def bfs_depth(edges, seeds, max_depth: int = 8):
    """Bounded-round BFS depth from a seed set over a distinct
    directed (src, dst) edge Dataset — crawl-frontier depth: how many
    hops from an entry point each url sits. Returns (node, depth) for
    EVERY node in the graph (plus any extra seed nodes); unreached
    nodes carry depth −1. Exact int64, layout/schedule-invariant.

    Per round the frontier (nodes at depth r−1) expands one hop: the
    edges whose src is in it, one ``sortagg.key_join(how='semi')``
    whose tier is decided each round —

    * fast tier — while the frontier fits ``BROADCAST_BYTES`` it
      broadcasts ONCE via ``ray.put`` and each edge block keeps
      matching rows with ``pc.index_in`` (a pure map, no exchange;
      real frontiers are tiny compared to the corpus);
    * scale tier — a frontier too big to broadcast filters the edges
      through :func:`sorted_lookup_join` (merge join, one range
      shuffle).

    New depths merge by grouped-min (``sorted_first_per_group`` with a
    depth tie key); rounds stop early when a frontier is empty. The
    known-depth table is O(V), never O(E); unreached nodes come from
    one LEFT merge join of the node set at the end."""
    import ray.data as rd

    from zhtml_ray.stages.sortagg import (key_join, sorted_first_per_group,
                                          sorted_lookup_join)
    from zhtml_ray.stages.util import compact_blocks

    empty = pa.table({"node": pa.array([], pa.string()),
                      "depth": pa.array([], pa.int64())})

    def node_part(b: pa.Table) -> pa.Table:
        t = pa.table({"node": pa.chunked_array(
            [b["src"].combine_chunks(), b["dst"].combine_chunks()])})
        return t.group_by("node").aggregate([])

    def seed_part(b: pa.Table) -> pa.Table:
        return pa.table({"node": b["node"]})

    # node universe = edge endpoints ∪ seeds (one distinct pass)
    nodes = compact_blocks(sorted_first_per_group(
        edges.map_batches(node_part, batch_format="pyarrow").union(
            seeds.map_batches(seed_part, batch_format="pyarrow")),
        ["node"]))

    def seed0(b: pa.Table) -> pa.Table:
        return pa.table({"node": b["node"],
                         "depth": pa.nulls(b.num_rows,
                                           pa.int64()).fill_null(0)})

    depths = compact_blocks(sorted_first_per_group(
        seeds.map_batches(seed0, batch_format="pyarrow"), ["node"]))
    edges = compact_blocks(edges)

    for r in range(1, max_depth + 1):
        frontier = depths.map_batches(
            lambda b, _r=r: pa.table({"src": b.filter(
                pc.equal(b["depth"], _r - 1))["node"]}),
            batch_format="pyarrow").materialize()
        if frontier.count() == 0:
            break
        cand = compact_blocks(key_join(
            edges, frontier, "src", how="semi")).map_batches(
            lambda b, _r=r: pa.table({
                "node": b["dst"],
                "depth": pa.nulls(b.num_rows,
                                  pa.int64()).fill_null(_r)}),
            batch_format="pyarrow")
        depths = compact_blocks(sorted_first_per_group(
            depths.union(cand), ["node"], tie_cols=("depth",)))

    if nodes.count() == 0:
        return rd.from_arrow(empty)
    if depths.count() == 0:
        def all_unreached(b: pa.Table) -> pa.Table:
            return pa.table({"node": b["node"],
                             "depth": pa.nulls(
                                 b.num_rows, pa.int64()).fill_null(-1)})
        return nodes.map_batches(all_unreached, batch_format="pyarrow")

    out = sorted_lookup_join(nodes, depths, "node", ["depth"],
                             how="left")

    def fill(b: pa.Table) -> pa.Table:
        return pa.table({"node": b["node"],
                         "depth": b["depth"].fill_null(-1)})

    return out.map_batches(fill, batch_format="pyarrow")


def sql_bfs_depth(links_sql: str, max_depth: int = 8) -> str:
    """Unrolled-round DuckDB oracle for :func:`bfs_depth` seeded by
    :func:`indegree_zero_seeds` — independent plan (hash joins +
    grouped min per round vs the engine's broadcast/merge-join
    frontier expansion)."""
    # MATERIALIZED: each d{k} references d{k-1} twice (carry + frontier
    # join); DuckDB's default inlining re-expands the 6-round chain
    # 2^6-fold (the r5 link_hits/pagerank lesson — OOM'd at sf0.1)
    parts = [f"WITH edges AS MATERIALIZED ({sql_edges_select(links_sql)}),",
             """nodes AS MATERIALIZED (SELECT src AS node FROM edges
          UNION SELECT dst FROM edges),
d0 AS MATERIALIZED (SELECT node, 0::BIGINT AS depth FROM nodes
       WHERE node NOT IN (SELECT dst FROM edges))"""]
    for k in range(1, max_depth + 1):
        parts.append(f""",
d{k} AS MATERIALIZED (SELECT node, min(depth)::BIGINT AS depth FROM (
  SELECT node, depth FROM d{k - 1}
  UNION ALL
  SELECT e.dst, f.depth + 1 FROM edges e
  JOIN d{k - 1} f ON e.src = f.node AND f.depth = {k - 1}
) GROUP BY node)""")
    parts.append(f"""
SELECT n.node, coalesce(d.depth, -1)::BIGINT AS depth
FROM nodes n LEFT JOIN d{max_depth} d USING (node)""")
    return "".join(parts)


def cocitation_topk(edges, k: int = 20, min_common: int = 2,
                    clique_limit: int = 4096):
    """Top-k co-cited page pairs — pages frequently linked FROM the
    same source (the classic related-pages / bibliographic-coupling
    signal, Small 1973). Per-src dst-pair emission rides the shared
    sorted bucket pairing (one range sort on (src, dst); a hub src
    with out-degree > ``clique_limit`` degrades to star pairs with a
    warning — the X98 recall caveat applies), then a pair-bounded
    run-sum, a ``min_common`` filter, and a tiny sort+limit by
    (-count, pair). Edges must be distinct (``link_edges`` output), so
    within a src every dst pair is unique and counts equal the number
    of common in-linking sources."""
    import numpy as np
    import pyarrow.compute as pc

    from zhtml_ray.functions.dedup import _bucket_pairs_np
    from zhtml_ray.stages.sortagg import (sorted_bucket_apply,
                                          sorted_sum_per_group)
    from zhtml_ray.stages.util import compact_blocks

    empty = pa.table({"key_a": pa.array([], pa.string()),
                      "key_b": pa.array([], pa.string())})

    def dst_pairs(b, starts, ends):
        return _bucket_pairs_np(b["dst"].combine_chunks(), starts, ends,
                                clique_limit)

    pairs = sorted_bucket_apply(edges, "src", ["src", "dst"],
                                dst_pairs, empty)

    def ones(b: pa.Table) -> pa.Table:
        return b.append_column(
            "n_common", pa.array(np.ones(b.num_rows, np.int64)))

    cnt = compact_blocks(sorted_sum_per_group(
        compact_blocks(pairs.map_batches(ones, batch_format="pyarrow")),
        ["key_a", "key_b"], ["n_common"]))

    def keep_neg(b: pa.Table) -> pa.Table:
        t = b.filter(pc.greater_equal(b["n_common"], min_common))
        return t.append_column("neg", pc.negate_checked(t["n_common"]))

    top = cnt.map_batches(keep_neg, batch_format="pyarrow") \
        .sort(["neg", "key_a", "key_b"]).limit(k)
    return top.map_batches(lambda b: b.drop_columns(["neg"]),
                           batch_format="pyarrow")


def sql_cocitation_topk(links_sql: str, k: int = 20,
                        min_common: int = 2) -> str:
    """INDEPENDENT DuckDB plan: self-join the edge set on src."""
    return f"""
WITH edges AS ({sql_edges_select(links_sql)}),
p AS (SELECT e1.dst AS key_a, e2.dst AS key_b,
             count(*)::BIGINT AS n_common
      FROM edges e1 JOIN edges e2
        ON e1.src = e2.src AND e1.dst < e2.dst
      GROUP BY 1, 2 HAVING count(*) >= {min_common})
SELECT key_a, key_b, n_common FROM p
ORDER BY n_common DESC, key_a, key_b LIMIT {k}
"""

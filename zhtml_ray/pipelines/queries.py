"""Driver-contract queries: every implemented operator/pipeline gets an
entry here (name → callable(sf_dir)), plus matching DuckDB oracle SQL
where the operator is SQL-expressible (CORRECTNESS gate, see
__ray_entry__.py). Column names match the SQL aliases exactly.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def _lineitem(sf_dir, columns=None):
    import ray.data as rd
    return rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=columns)


def _pages(sf_dir):
    from zhtml_ray.pipelines.extract import pages_dir_for
    from zhtml_ray.sources.pages import plan_pages, read_pages
    return read_pages(plan_pages(pages_dir_for(sf_dir)), ["url", "html"])


def _money_cents(col):
    """Exact int64 cents from a 2-dp-decimal money double column."""
    import pyarrow as pa
    import pyarrow.compute as pc
    return pc.cast(pc.round(pc.multiply(col, pa.scalar(100.0))), pa.int64())


def _rev_units(price, discount):
    """price × (1 − discount) in EXACT 1e-4-dollar int64 units:
    cents × (100 − discount_cents).

    The fixture's money/discount columns are 2-dp decimals (TESTDATA,
    verified), so integer-unit group sums are bit-identical between
    engine and oracle with NO float pin. Any decimal pin on a float
    sum leaves a flip boundary either ON the data's decimal grid
    (grid collision → ~50/50 flip whenever a true sum lands on it —
    the r3 q9 driver failure: 2-dp pin on a 1e-4-grid sum) or within
    accumulation-order noise (coarse pins on huge-n sums). Integer
    units remove the boundary entirely. Per-block int64 sums wrap
    only past ~2e14 rows/block at max prices — unreachable."""
    import pyarrow as pa
    import pyarrow.compute as pc
    return pc.multiply(_money_cents(price),
                       pc.subtract(pa.scalar(100, pa.int64()),
                                   _money_cents(discount)))


# DuckDB-side mirror of _rev_units (HUGEINT-exact under sum())
_REV_U_SQL = ("CAST(round(l_extendedprice * 100) AS BIGINT) "
              "* (100 - CAST(round(l_discount * 100) AS BIGINT))")


def _bcast_lookup(keys, pk):
    """Broadcast-dim lookup with FK-integrity masking: returns
    ``(idx, found)`` for sorted ``keys``. A foreign key absent from
    the dim table gets ``found=False`` (and a clipped, safe index)
    instead of silently inheriting a NEIGHBORING row's attributes or
    raising IndexError past the last key (r4 advisor). Callers drop
    unfound rows — inner-join semantics, matching the SQL oracles."""
    import numpy as np
    if len(keys) == 0:
        z = np.zeros(len(pk), np.int64)
        return z, np.zeros(len(pk), bool)
    idx = np.minimum(np.searchsorted(keys, pk), len(keys) - 1)
    return idx, keys[idx] == pk


# --------------------------------------------------------------- extraction

def q_extract(sf_dir: str):
    """Flagship: synthetic pages @ this scale → parse+extract. Oracled
    against the pinned SERIAL single-process run of the same kernels
    (pipelines/golden.py): the north-star "byte-identical extracted
    text per url, distributed vs pinned oracle" as a driver-checked
    row. Nested spans/error columns ride as canonical JSON strings so
    the gate's sort+hash compare covers them too."""
    from zhtml_ray.pipelines.extract import run_extract
    from zhtml_ray.pipelines.golden import ensure_golden, gate_project

    ds = run_extract(sf_dir).map_batches(gate_project,
                                         batch_format="pyarrow")
    ensure_golden("extract", sf_dir)
    return ds


def q_extract_error_histogram(sf_dir: str):
    """Error-code histogram over the extraction run (SURVEY.md §2.5):
    per-batch partial value_counts → code-bounded groupby (r4 — the
    exploded per-error-row form shuffled ~40 rows per DOC; partials
    shuffle ~50 rows per BLOCK, and the tiny partial stream compacts
    before the groupby so its sort doesn't pay per-block overhead)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from zhtml_ray.pipelines.extract import run_extract
    from zhtml_ray.stages.util import compact_blocks

    ds = run_extract(sf_dir, include_spans=False)

    def partial(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(batch.column("errors"))
        vc = pc.value_counts(pc.struct_field(flat, "code"))
        return pa.table({"code": vc.field("values"),
                         "p_n": pc.cast(vc.field("counts"), pa.int64())})

    parts = compact_blocks(
        ds.map_batches(partial, batch_format="pyarrow"))
    from zhtml_ray.pipelines.golden import ensure_golden
    ensure_golden("extract_error_histogram", sf_dir)
    return parts.groupby("code") \
        .aggregate(Sum("p_n", alias_name="count()")).sort("code")


# ------------------------------------------------------- TPC-H-ish queries

def q1_pricing_summary(sf_dir: str):
    """TPC-H Q1-style grouped aggregate with batch-level pre-aggregation
    (partial combine inside map_batches → tiny final groupby; the
    at-scale pattern from SURVEY.md §2.5)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    ds = _lineitem(sf_dir, ["l_returnflag", "l_linestatus", "l_quantity",
                            "l_extendedprice", "l_discount", "l_shipdate"])

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.less_equal(batch["l_shipdate"],
                          pa.scalar(__import__("datetime").datetime(1998, 9, 2))))
        # integer-unit money (r4): the fixture's prices/discounts are
        # 2-dp decimals, so cents and cents×(100-disc_cents) are exact
        # int64 — group sums are bit-identical to the oracle with no
        # float pin at all (a decimal pin on a float sum always leaves
        # SOME boundary within reach of grid collision or noise)
        ext_c = pc.cast(pc.round(pc.multiply(batch["l_extendedprice"],
                                             pa.scalar(100.0))), pa.int64())
        dis_c = pc.cast(pc.round(pc.multiply(batch["l_discount"],
                                             pa.scalar(100.0))), pa.int64())
        disc_u = pc.multiply(ext_c, pc.subtract(pa.scalar(100, pa.int64()),
                                                dis_c))
        batch = pa.table({
            "l_returnflag": batch["l_returnflag"],
            "l_linestatus": batch["l_linestatus"],
            "l_quantity": batch["l_quantity"],
            "ext_c": ext_c, "disc_u": disc_u, "dis_c": dis_c})
        tbl = batch.group_by(["l_returnflag", "l_linestatus"]).aggregate([
            ("l_quantity", "sum"), ("ext_c", "sum"),
            ("disc_u", "sum"), ("dis_c", "sum"),
            ("l_quantity", "count"),
        ])
        return tbl.rename_columns([
            "l_returnflag", "l_linestatus", "p_qty", "p_price", "p_disc_price",
            "p_disc", "p_n"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    agg = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("p_qty", alias_name="sum_qty"),
        Sum("p_price", alias_name="sum_base_price"),
        Sum("p_disc_price", alias_name="sum_disc_price"),
        Sum("p_disc", alias_name="sum_disc"),
        Sum("p_n", alias_name="count_order"),
    )
    import pandas as pd
    pdf = agg.to_pandas()
    # exact-integer sums divide to the identical IEEE double on both
    # sides (one division each); avgs then derive from identical
    # doubles, so the 4-dp avg pins are pure defense in depth
    pdf["sum_base_price"] = pdf["sum_base_price"] / 1e2
    pdf["sum_disc_price"] = pdf["sum_disc_price"] / 1e4
    pdf["avg_qty"] = pdf["sum_qty"] / pdf["count_order"]
    pdf["avg_price"] = pdf["sum_base_price"] / pdf["count_order"]
    pdf["avg_disc"] = (pdf["sum_disc"] / 1e2) / pdf["count_order"]
    pdf = pdf.drop(columns=["sum_disc"])
    import numpy as np
    for c in ("avg_qty", "avg_price", "avg_disc"):
        pdf[c] = np.floor(pdf[c] * 1e4 + 0.5) / 1e4
    return pdf.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


SQL_Q1 = """
SELECT l_returnflag, l_linestatus,
       sum(l_quantity)  AS sum_qty,
       sum(CAST(round(l_extendedprice * 100) AS BIGINT)) / 1e2
           AS sum_base_price,
       sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 1e4
           AS sum_disc_price,
       count(*) AS count_order,
       floor(sum(l_quantity) / count(*) * 1e4 + 0.5) / 1e4 AS avg_qty,
       floor(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) / 1e2
             / count(*) * 1e4 + 0.5) / 1e4 AS avg_price,
       floor(sum(CAST(round(l_discount * 100) AS BIGINT)) / 1e2
             / count(*) * 1e4 + 0.5) / 1e4 AS avg_disc
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


def q_filter_revenue(sf_dir: str):
    """Vectorized filter + computed column, zero-copy Arrow."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _lineitem(sf_dir, ["l_orderkey", "l_extendedprice", "l_discount",
                            "l_shipdate"])

    def f(batch: pa.Table) -> pa.Table:
        import datetime
        keep = pc.and_(
            pc.greater_equal(batch["l_shipdate"],
                             pa.scalar(datetime.datetime(1997, 1, 1))),
            pc.greater(batch["l_discount"], pa.scalar(0.05)))
        batch = batch.filter(keep)
        rev = pc.multiply(batch["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        return pa.table({"l_orderkey": batch["l_orderkey"],
                         "revenue": rev})

    return ds.map_batches(f, batch_format="pyarrow")


SQL_FILTER_REVENUE = """
SELECT l_orderkey, l_extendedprice * (1 - l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1997-01-01' AND l_discount > 0.05
"""


def q_cust_nation_region(sf_dir: str):
    """Broadcast (map-side) join: dimension tables shipped once via
    ray.put, looked up per batch with zero-copy Arrow `pc.index_in` +
    `pc.take` — no shuffle, no pandas conversion (SURVEY.md §2.4)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    dim = nation.join(region, keys="n_regionkey", right_keys="r_regionkey") \
                .select(["n_nationkey", "n_name", "r_name"]).combine_chunks()
    dim_ref = ray.put((dim["n_nationkey"].combine_chunks(),
                       dim["n_name"].combine_chunks(),
                       dim["r_name"].combine_chunks()))

    ds = rd.read_parquet(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey", "c_acctbal"])

    def join(batch: pa.Table) -> pa.Table:
        keys, n_name, r_name = ray.get(dim_ref)  # local-store get, zero-copy
        idx = pc.index_in(batch["c_nationkey"],
                          value_set=pc.cast(keys, batch["c_nationkey"].type))
        return pa.table({
            "c_custkey": batch["c_custkey"],
            "c_acctbal": batch["c_acctbal"],
            "n_name": pc.take(n_name, idx),
            "r_name": pc.take(r_name, idx),
        })

    return ds.map_batches(join, batch_format="pyarrow")


SQL_CUST_NATION_REGION = """
SELECT c_custkey, c_acctbal, n_name, r_name
FROM customer
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
"""


def q_top_orders(sf_dir: str):
    """Top-k by sort (distributed sort + limit)."""
    import ray.data as rd
    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderkey", "o_totalprice"])
    # secondary key matches the oracle's deterministic tie-break so a
    # totalprice tie straddling the top-10 boundary picks the same rows
    return ds.sort(["o_totalprice", "o_orderkey"],
                   descending=[True, False]).limit(10)


SQL_TOP_ORDERS = """
SELECT o_orderkey, o_totalprice FROM orders
ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""


def q_brand_revenue(sf_dir: str):
    """Broadcast join + partial aggregation combined: the part dimension
    (small side) ships once via ray.put as a key→brand array lookup;
    revenue is pre-aggregated per brand inside each batch, then a tiny
    final groupby (SURVEY.md §2.4 + §2.5 patterns composed)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand"])
    keys = np.asarray(part["p_partkey"].to_pylist(), np.int64)
    order = np.argsort(keys)
    brands = np.asarray(part["p_brand"].to_pylist(), object)[order]
    lookup_ref = ray.put((keys[order], brands))

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_partkey", "l_extendedprice",
                                  "l_discount"])

    class Partial:
        def __init__(self):
            self.keys, self.brands = ray.get(lookup_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            pk = np.asarray(batch["l_partkey"].to_pylist(), np.int64)
            idx, found = _bcast_lookup(self.keys, pk)
            brand = self.brands[idx][found]
            rev = _rev_units(batch["l_extendedprice"],
                             batch["l_discount"]).to_numpy()[found]
            t = pa.table({"p_brand": pa.array(brand.tolist(), pa.string()),
                          "rev": pa.array(rev)})
            return t.group_by("p_brand").aggregate([("rev", "sum")]) \
                    .rename_columns(["p_brand", "p_rev"])

    from zhtml_ray.stages.util import stateless_stage
    partials = ds.map_batches(stateless_stage(Partial),
                              batch_format="pyarrow")
    agg = partials.groupby("p_brand").aggregate(
        Sum("p_rev", alias_name="revenue"))
    pdf = agg.to_pandas()
    # exact int units → one division: identical double on both sides
    pdf["revenue"] = pdf["revenue"] / 1e4
    return pdf.sort_values("p_brand").reset_index(drop=True)


SQL_BRAND_REVENUE = f"""
SELECT p_brand, sum({_REV_U_SQL}) / 1e4 AS revenue
FROM lineitem JOIN part ON l_partkey = p_partkey
GROUP BY p_brand ORDER BY p_brand
"""


def q_big_discount_orders(sf_dir: str):
    """Semi-join: orders having ≥1 lineitem with discount > 0.08.
    The qualifying key set is made distinct DISTRIBUTED (per-batch
    `pc.unique` partial + sort-based grouped-first), then
    ``key_join(how='semi')`` filters orders by it: broadcast for a
    map-side ``pc.index_in`` while it fits ``BROADCAST_BYTES``, else
    one range-shuffle merge join — so there is never an unbounded
    driver-side key set. An empty result is a typed empty Arrow table
    (Ray's ``to_pandas`` drops every column of an all-empty Dataset)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from zhtml_ray.stages.sortagg import key_join, sorted_first_per_group
    from zhtml_ray.stages.util import schema_safe_result

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_discount"])

    def qualifying(batch: pa.Table) -> pa.Table:
        keep = batch.filter(pc.greater(batch["l_discount"], 0.08))
        return pa.table({"o_orderkey": pc.unique(keep["l_orderkey"])})

    # distributed distinct (the key only ever shuffles — the discount
    # column is dropped first) via the SORT-based grouped-first
    # primitive: order keys are maximal-cardinality, where hash-shuffle
    # aggregation is ~20× slower than sort + block-local run heads
    # (stages/sortagg.py). Materialized in the object store, NOT on
    # the driver.
    distinct = sorted_first_per_group(
        li.map_batches(qualifying, batch_format="pyarrow"),
        ["o_orderkey"])
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_totalprice"])
    return schema_safe_result(
        key_join(orders, distinct, "o_orderkey", how="semi"))


SQL_BIG_DISCOUNT_ORDERS = """
SELECT o_orderkey, o_totalprice FROM orders
WHERE o_orderkey IN (
  SELECT l_orderkey FROM lineitem WHERE l_discount > 0.08)
"""


def q3_shipping(sf_dir: str, seg: str = "BUILDING",
                cutoff: str = "1998-06-01"):
    """TPC-H Q3 shape (shipping priority): three-table join, composed
    scale-first — the segment-filtered customer keys broadcast once as
    a semi-join set (dim-sized; a fact-sized side would take
    ``sortagg.key_join``, which falls back to a merge join), lineitem
    revenue pre-aggregates per batch THEN per orderkey, and the order
    attributes attach via ``sorted_lookup_join`` (merge-join-as-sort,
    measured ~5× cheaper than the hash join on this Ray version). Only
    the top-10 result materializes on the driver."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum
    from zhtml_ray.stages.sortagg import sorted_lookup_join
    from zhtml_ray.stages.util import drop_empty_blocks

    cut = np.datetime64(cutoff, "us")
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"])
    ckeys = cust.filter(pc.equal(cust["c_mktsegment"], seg))["c_custkey"]
    cref = ray.put(pa.array(sorted(ckeys.to_pylist()), pa.int64()))

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate",
                 "o_orderpriority"])

    def keep_orders(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.less(b["o_orderdate"], pa.scalar(cut)),
                    pc.is_in(b["o_custkey"], value_set=ray.get(cref)))
        t = b.filter(m)
        return t.select(["o_orderkey", "o_orderdate", "o_orderpriority"])

    ord_f = drop_empty_blocks(
        orders.map_batches(keep_orders, batch_format="pyarrow"))

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_extendedprice",
                                  "l_discount", "l_shipdate"])

    def rev_partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.greater(b["l_shipdate"], pa.scalar(cut)))
        rev = _rev_units(t["l_extendedprice"], t["l_discount"])
        g = pa.table({"o_orderkey": t["l_orderkey"], "rev": rev}) \
            .group_by("o_orderkey").aggregate([("rev", "sum")])
        return g.rename_columns(["o_orderkey", "rev"])

    rev = drop_empty_blocks(
        li.map_batches(rev_partial, batch_format="pyarrow")) \
        .groupby("o_orderkey").aggregate(Sum("rev", alias_name="rev"))

    joined = sorted_lookup_join(rev, ord_f, "o_orderkey",
                                ["o_orderdate", "o_orderpriority"],
                                how="inner")

    def pin(b: pa.Table) -> pa.Table:
        # exact int-unit sum → dollars BEFORE the top-10 sort: both
        # sides order by the identical double, so a boundary tie
        # resolves identically (revenue is exact, no pin needed)
        r = pc.divide(pc.cast(b["rev"], pa.float64()), pa.scalar(1e4))
        return b.set_column(b.schema.get_field_index("rev"), "rev", r)

    top = joined.map_batches(pin, batch_format="pyarrow") \
        .sort(["rev", "o_orderkey"], descending=[True, False]).limit(10)
    pdf = top.to_pandas()
    pdf["revenue"] = pdf["rev"]
    pdf = pdf[["o_orderkey", "revenue", "o_orderdate", "o_orderpriority"]]
    return pdf.sort_values(["revenue", "o_orderkey"],
                           ascending=[False, True]).reset_index(drop=True)


SQL_Q3_SHIPPING = f"""
SELECT o_orderkey,
       sum({_REV_U_SQL}) / 1e4 AS revenue,
       o_orderdate, o_orderpriority
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '1998-06-01'
  AND l_shipdate  > TIMESTAMP '1998-06-01'
GROUP BY o_orderkey, o_orderdate, o_orderpriority
ORDER BY revenue DESC, o_orderkey
LIMIT 10
"""


def q_top_orders_per_cust(sf_dir: str, n: int = 3):
    """Per-group top-k (the grouped form of `top_orders`): each
    customer's ``n`` highest-value orders, ties broken by orderkey.
    ``sorted_head_n_per_group`` — ONE range shuffle on custkey,
    block-local run slices, ≤ 2n boundary rows per block, so a
    mega-customer never lands whole on one worker. Descending price
    rides the ascending primitive via a negated sort column."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from zhtml_ray.stages.sortagg import sorted_head_n_per_group

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_custkey", "o_orderkey",
                                  "o_totalprice"])

    def neg(b: pa.Table) -> pa.Table:
        return b.append_column(
            "neg_price", pc.negate(b["o_totalprice"]))

    kept = sorted_head_n_per_group(
        ds.map_batches(neg, batch_format="pyarrow"),
        ["o_custkey"], ["neg_price", "o_orderkey"], n=n)
    return kept.select_columns(["o_custkey", "o_orderkey",
                                "o_totalprice"])


SQL_TOP_ORDERS_PER_CUST = """
SELECT o_custkey, o_orderkey, o_totalprice FROM (
    SELECT o_custkey, o_orderkey, o_totalprice,
           row_number() OVER (PARTITION BY o_custkey
                              ORDER BY o_totalprice DESC, o_orderkey) AS rn
    FROM orders) t
WHERE rn <= 3
"""


def q13_order_counts(sf_dir: str, excl: str = "1-URGENT"):
    """TPC-H Q13 shape (customer order-count distribution): a LEFT
    OUTER join where customers with zero qualifying orders must
    survive with count 0. Scale-first composition: orders pre-count
    per custkey inside each batch (partial combine) → one small
    groupby, then the per-customer counts attach to the customer table
    via ``sorted_lookup_join(how='left')`` — ONE range shuffle of
    (customer ∪ counts), never a hash join, never a driver-side dict.
    The final histogram is two more partial-combine groupbys; only the
    ≤ #distinct-counts histogram lands on the driver."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum
    from zhtml_ray.stages.sortagg import sorted_lookup_join
    from zhtml_ray.stages.util import drop_empty_blocks

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_orderpriority"])

    def count_partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.not_equal(b["o_orderpriority"], excl))
        g = pa.table({"c_custkey": t["o_custkey"]}) \
            .group_by("c_custkey").aggregate([("c_custkey", "count")])
        return g.rename_columns(["c_custkey", "n_ord"])

    # sorted_sum, not groupby().aggregate(): ~8× cheaper on
    # high-cardinality keys (BENCH/BASELINE.md sorted_sum section)
    from zhtml_ray.stages.sortagg import sorted_sum_per_group
    counts = sorted_sum_per_group(
        drop_empty_blocks(
            orders.map_batches(count_partial, batch_format="pyarrow")),
        ["c_custkey"], ["n_ord"])

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey"])
    joined = sorted_lookup_join(cust, counts, "c_custkey", ["n_ord"],
                                how="left")

    def hist_partial(b: pa.Table) -> pa.Table:
        c_count = pc.fill_null(b["n_ord"], 0)
        g = pa.table({"c_count": c_count}) \
            .group_by("c_count").aggregate([("c_count", "count")])
        return g.rename_columns(["c_count", "part_d"])

    hist = joined.map_batches(hist_partial, batch_format="pyarrow") \
        .groupby("c_count").aggregate(Sum("part_d", alias_name="custdist"))
    pdf = hist.to_pandas()
    return pdf.sort_values(["custdist", "c_count"],
                           ascending=[False, False]).reset_index(drop=True)


SQL_Q13_ORDER_COUNTS = """
SELECT c_count, count(*) AS custdist FROM (
  SELECT c_custkey, count(o_orderkey) AS c_count
  FROM customer LEFT OUTER JOIN orders
    ON c_custkey = o_custkey AND o_orderpriority <> '1-URGENT'
  GROUP BY c_custkey) t
GROUP BY c_count ORDER BY custdist DESC, c_count DESC
"""


def q_cust_no_urgent_orders(sf_dir: str):
    """Anti-join (NOT EXISTS): customers with no '1-URGENT' order —
    the blocklist-filter shape of a crawl pipeline. The qualifying key
    set is made distinct DISTRIBUTED (sort-based grouped-first), then
    ``key_join(how='anti')`` drops its customers: an inverted map-side
    ``pc.index_in`` while the set fits ``BROADCAST_BYTES``, else one
    range-shuffle merge join — nothing unbounded on the driver either
    way. An empty result is a typed empty Arrow table, as in
    ``q_big_discount_orders``."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from zhtml_ray.stages.sortagg import key_join, sorted_first_per_group
    from zhtml_ray.stages.util import schema_safe_result

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_orderpriority"])

    def urgent_keys(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["o_orderpriority"], "1-URGENT"))
        return pa.table({"c_custkey": pc.unique(t["o_custkey"])})

    distinct = sorted_first_per_group(
        orders.map_batches(urgent_keys, batch_format="pyarrow"),
        ["c_custkey"])
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_acctbal"])
    return schema_safe_result(
        key_join(cust, distinct, "c_custkey", how="anti"))


SQL_CUST_NO_URGENT_ORDERS = """
SELECT c_custkey, c_acctbal FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_orderpriority = '1-URGENT')
"""


def q5_region_supplier_volume(sf_dir: str, region: str = "ASIA",
                              lo: str = "1996-01-01",
                              hi: str = "1998-01-01"):
    """TPC-H Q5 shape (6-table star join: revenue by nation where the
    customer's and supplier's nation agree, within one region and date
    range). Scale-first composition — THREE range shuffles, zero hash
    joins, and the only broadcasts are the ≤25-row nation⋈region dim:

      1. date-filtered orders ⋈ customer (merge-join-as-sort on
         custkey) → (o_orderkey, c_nationkey);
      2. lineitem (revenue precomputed map-side, columns pruned to 3)
         ⋈ that lookup on orderkey → + c_nationkey, then a map-side
         region filter drops ~4/5 of rows BEFORE the third shuffle;
      3. ⋈ supplier on suppkey → + s_nationkey (supplier is SF×10k —
         too big to broadcast at 100 TB, so it shuffles like any big
         side; the lineitem side is already region-pruned).

    Nation equality + per-nation partial aggregation run map-side;
    only ≤ #nations rows reach the driver. Chained sortagg outputs are
    compacted between sorts (CLAUDE.md sort-chain rule)."""
    import datetime as _dt

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from zhtml_ray.stages.sortagg import sorted_lookup_join
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    reg = pq.read_table(f"{sf_dir}/region.parquet")
    dim = nation.join(reg, keys="n_regionkey", right_keys="r_regionkey")
    dim = dim.filter(pc.equal(dim["r_name"], region))
    nat_keys = pc.cast(dim["n_nationkey"], pa.int32()).combine_chunks()
    nat_names = dim["n_name"].combine_chunks()
    dim_ref = ray.put((nat_keys, nat_names))

    lo_ts = _dt.datetime.fromisoformat(lo)
    hi_ts = _dt.datetime.fromisoformat(hi)

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey",
                                      "o_orderdate"])

    def date_filter(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(b["o_orderdate"],
                                        pa.scalar(lo_ts)),
                       pc.less(b["o_orderdate"], pa.scalar(hi_ts)))
        return b.filter(keep).select(["o_orderkey", "o_custkey"]) \
                .rename_columns(["o_orderkey", "c_custkey"])

    o_filtered = orders.map_batches(date_filter, batch_format="pyarrow")

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_nationkey"])
    # shuffle 1: orders rows get their customer's nation
    o_nat = compact_blocks(sorted_lookup_join(
        o_filtered, cust, "c_custkey", ["c_nationkey"], how="inner")) \
        .drop_columns(["c_custkey"])

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_suppkey",
                                    "l_extendedprice", "l_discount"])

    def prep_line(b: pa.Table) -> pa.Table:
        rev = _rev_units(b["l_extendedprice"], b["l_discount"])
        return pa.table({"o_orderkey": b["l_orderkey"],
                         "l_suppkey": b["l_suppkey"], "rev": rev})

    line_p = line.map_batches(prep_line, batch_format="pyarrow")
    # shuffle 2: lineitem rows get the order's customer nation
    li_nat = sorted_lookup_join(line_p, o_nat, "o_orderkey",
                                ["c_nationkey"], how="inner")

    def region_prune(b: pa.Table) -> pa.Table:
        keys, _ = ray.get(dim_ref)
        keep = pc.is_in(b["c_nationkey"], value_set=keys)
        return b.filter(pc.fill_null(keep, False)) \
                .select(["l_suppkey", "rev", "c_nationkey"]) \
                .rename_columns(["s_suppkey", "rev", "c_nationkey"])

    pruned = compact_blocks(
        li_nat.map_batches(region_prune, batch_format="pyarrow"))

    supp = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_nationkey"])
    # shuffle 3: attach the supplier's nation
    with_s = sorted_lookup_join(pruned, supp, "s_suppkey",
                                ["s_nationkey"], how="inner")

    def partial(b: pa.Table) -> pa.Table:
        same = pc.equal(pc.cast(b["c_nationkey"], pa.int32()),
                        b["s_nationkey"])
        t = b.filter(pc.fill_null(same, False))
        g = pa.table({"n_nationkey": t["s_nationkey"], "rev": t["rev"]}) \
            .group_by("n_nationkey").aggregate([("rev", "sum")])
        return g.rename_columns(["n_nationkey", "part_rev"])

    agg = drop_empty_blocks(
        with_s.map_batches(partial, batch_format="pyarrow")) \
        .groupby("n_nationkey").aggregate(Sum("part_rev",
                                              alias_name="revenue"))
    pdf = agg.to_pandas()
    keys, names = nat_keys.to_pylist(), nat_names.to_pylist()
    name_of = dict(zip(keys, names))
    pdf["n_name"] = pdf["n_nationkey"].map(name_of)
    pdf["revenue"] = pdf["revenue"] / 1e4
    return pdf[["n_name", "revenue"]] \
        .sort_values(["revenue", "n_name"], ascending=[False, True]) \
        .reset_index(drop=True)


SQL_Q5_REGION_SUPPLIER_VOLUME = f"""
SELECT n_name,
       sum({_REV_U_SQL}) / 1e4 AS revenue
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN supplier ON l_suppkey = s_suppkey AND c_nationkey = s_nationkey
JOIN nation   ON s_nationkey = n_nationkey
JOIN region   ON n_regionkey = r_regionkey
WHERE r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1998-01-01'
GROUP BY n_name ORDER BY revenue DESC, n_name
"""


def q14_promo_revenue(sf_dir: str, lo: str = "1996-01-01",
                      hi: str = "1996-07-01"):
    """TPC-H Q14 shape (promotion revenue share in a date window):
    broadcast the part dimension once as a sorted partkey → is-promo
    bitmap (the q_brand_revenue small-side pattern — one int64 array +
    one bool array via ``ray.put``, read zero-copy per worker), then a
    single pure-map pass over date-filtered lineitem emitting one
    2-float partial row per batch; the global reduce is
    ``Dataset.aggregate`` over ≤ #blocks tiny rows. Zero shuffles.
    Both revenue sums are EXACT int64 1e-4-dollar units (r4, see
    _rev_units), so the percentage derives from identical doubles."""
    import datetime as _dt

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from zhtml_ray.stages.util import stateless_stage

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_type"])
    keys = np.asarray(part["p_partkey"].to_pylist(), np.int64)
    promo = np.asarray(
        pc.equal(part["p_type"], "PROMO").to_pylist(), bool)
    order = np.argsort(keys)
    lookup_ref = ray.put((keys[order], promo[order]))

    lo_ts = _dt.datetime.fromisoformat(lo)
    hi_ts = _dt.datetime.fromisoformat(hi)

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_partkey", "l_extendedprice",
                                  "l_discount", "l_shipdate"])

    class Partial:
        def __init__(self):
            self.keys, self.promo = ray.get(lookup_ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            keep = pc.and_(pc.greater_equal(b["l_shipdate"],
                                            pa.scalar(lo_ts)),
                           pc.less(b["l_shipdate"], pa.scalar(hi_ts)))
            t = b.filter(keep)
            rev = _rev_units(t["l_extendedprice"],
                             t["l_discount"]).to_numpy()
            pk = t["l_partkey"].to_numpy(zero_copy_only=False)
            idx, found = _bcast_lookup(self.keys, pk)
            rev = rev[found]  # inner-join: unmatched partkeys drop
            is_promo = self.promo[idx][found]
            return pa.table({
                "p": pa.array([int(rev[is_promo].sum())], pa.int64()),
                "t": pa.array([int(rev.sum())], pa.int64())})

    parts = ds.map_batches(stateless_stage(Partial),
                           batch_format="pyarrow")
    got = parts.aggregate(Sum("p", alias_name="p"),
                          Sum("t", alias_name="t"))
    import math
    pr = int(got["p"] or 0) / 1e4
    tr = int(got["t"] or 0) / 1e4
    pct = math.floor(100.0 * pr / tr * 1e6 + 0.5) / 1e6 if tr else 0.0
    import pandas as pd
    return pd.DataFrame({"promo_revenue": [pr], "total_revenue": [tr],
                         "promo_pct": [pct]})


SQL_Q14_PROMO_REVENUE = f"""
WITH s AS (
  SELECT
    sum(CASE WHEN p_type = 'PROMO'
             THEN {_REV_U_SQL}
             ELSE 0 END) / 1e4 AS promo_revenue,
    sum({_REV_U_SQL}) / 1e4 AS total_revenue
  FROM lineitem JOIN part ON l_partkey = p_partkey
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate <  TIMESTAMP '1996-07-01')
SELECT promo_revenue, total_revenue,
       floor(100.0 * promo_revenue / total_revenue * 1e6 + 0.5) / 1e6
           AS promo_pct
FROM s
"""


def q4_priority_exists(sf_dir: str, disc: float = 0.09,
                       lo: str = "1996-01-01", hi: str = "1998-01-01"):
    """TPC-H Q4 shape (order-priority histogram over orders that HAVE
    at least one qualifying lineitem — EXISTS semi-join): qualifying
    orderkeys are made distinct DISTRIBUTED (per-batch Arrow unique →
    sort-based grouped-first), then filter date-filtered orders via
    ``sorted_lookup_join(how='semi')`` — the always-shuffle
    counterpart of ``key_join``'s broadcast tier for when the
    qualifying set is a large fraction of orders and no broadcast
    budget can hold it. Per-batch priority counts partial-combine; ≤5
    rows reach the driver."""
    import datetime as _dt

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    from zhtml_ray.stages.sortagg import (sorted_first_per_group,
                                          sorted_lookup_join)
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_discount"])

    def qual_keys(b: pa.Table) -> pa.Table:
        t = b.filter(pc.greater(b["l_discount"], disc))
        return pa.table({"o_orderkey": pc.unique(t["l_orderkey"])})

    qualifying = compact_blocks(sorted_first_per_group(
        line.map_batches(qual_keys, batch_format="pyarrow"),
        ["o_orderkey"]))

    lo_ts = _dt.datetime.fromisoformat(lo)
    hi_ts = _dt.datetime.fromisoformat(hi)
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderdate",
                                      "o_orderpriority"])

    def date_filter(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(b["o_orderdate"],
                                        pa.scalar(lo_ts)),
                       pc.less(b["o_orderdate"], pa.scalar(hi_ts)))
        return b.filter(keep).select(["o_orderkey", "o_orderpriority"])

    o_f = orders.map_batches(date_filter, batch_format="pyarrow")
    joined = sorted_lookup_join(o_f, qualifying, "o_orderkey", (),
                                how="semi")

    def count_partial(b: pa.Table) -> pa.Table:
        g = pa.table({"o_orderpriority": b["o_orderpriority"]}) \
            .group_by("o_orderpriority") \
            .aggregate([("o_orderpriority", "count")])
        return g.rename_columns(["o_orderpriority", "part_n"])

    agg = drop_empty_blocks(
        joined.map_batches(count_partial, batch_format="pyarrow")) \
        .groupby("o_orderpriority") \
        .aggregate(Sum("part_n", alias_name="order_count"))
    return agg.to_pandas().sort_values("o_orderpriority") \
        .reset_index(drop=True)


SQL_Q4_PRIORITY_EXISTS = """
SELECT o_orderpriority, count(*) AS order_count
FROM orders
WHERE o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1998-01-01'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_discount > 0.09)
GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


def q_bloom_join_revenue(sf_dir: str, priority: str = "1-URGENT",
                         log2_bits: int = 20, k: int = 6):
    """Bloom-prefiltered join (urgent-order lineitem revenue): the
    qualifying orderkey set rides to every lineitem task as a 128 KiB
    Bloom BITMAP instead of an exact key array — at 100 TB the exact
    set outgrows any broadcast budget, while the bitmap's size is
    fixed by the chosen false-positive rate. The bitmap only
    PREFILTERS (no false negatives, ~0.5% false positives at these
    parameters); survivors still pass the exact merge join, so the
    result is exact and SQL-oracled — the bloom's job is to slash the
    shuffle bytes entering that join (measured survivor fraction ≈
    the true match rate; a probe regression fails
    tests/test_sketch.py's survivor-bound assert). Bitmap build is
    bitwise-OR mergeable → layout/schedule-invariant."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from zhtml_ray.functions.sketch import bloom_from_dataset, bloom_probe
    from zhtml_ray.stages.sortagg import sorted_lookup_join
    from zhtml_ray.stages.util import drop_empty_blocks

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderpriority"])

    def urgent(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["o_orderpriority"], priority))
        return t.select(["o_orderkey"])

    urgent_keys = orders.map_batches(urgent, batch_format="pyarrow") \
        .materialize()
    bitmap = bloom_from_dataset(urgent_keys, "o_orderkey",
                                log2_bits=log2_bits, k=k)
    bref = ray.put(bitmap)

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_extendedprice",
                                    "l_discount"])

    def prefilter(b: pa.Table) -> pa.Table:
        keys = b["l_orderkey"].to_numpy(zero_copy_only=False)
        keep = bloom_probe(ray.get(bref), keys, log2_bits, k)
        t = b.filter(pa.array(keep))
        rev = _rev_units(t["l_extendedprice"], t["l_discount"])
        return pa.table({"o_orderkey": t["l_orderkey"], "rev": rev})

    survivors = line.map_batches(prefilter, batch_format="pyarrow")
    joined = sorted_lookup_join(survivors, urgent_keys, "o_orderkey",
                                (), how="semi")

    def partial(b: pa.Table) -> pa.Table:
        return pa.table({
            "r": pa.array([int(pc.sum(b["rev"]).as_py() or 0)], pa.int64()),
            "n": pa.array([b.num_rows], pa.int64())})

    got = drop_empty_blocks(
        joined.map_batches(partial, batch_format="pyarrow")) \
        .aggregate(Sum("r", alias_name="r"), Sum("n", alias_name="n"))
    import pandas as pd
    rev = int(got["r"] or 0) / 1e4
    return pd.DataFrame({"revenue": [rev],
                         "n_items": [int(got["n"] or 0)]})


SQL_BLOOM_JOIN_REVENUE = f"""
SELECT sum({_REV_U_SQL}) / 1e4 AS revenue,
       count(*) AS n_items
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE o_orderpriority = '1-URGENT'
"""


def q_top_docs_by_length(sf_dir: str):
    """Top-k largest documents (SURVEY.md §2.6 diagnostics: distributed
    sort + limit; the length column is computed vectorized per batch)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def with_len(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"],
            "text_len": pc.cast(pc.utf8_length(b["text"]), pa.int64()),
        })

    out = ds.map_batches(with_len, batch_format="pyarrow")
    return out.sort(["text_len", "doc_id"], descending=[True, True]).limit(10)


SQL_TOP_DOCS_BY_LENGTH = """
SELECT doc_id, length(text) AS text_len
FROM documents ORDER BY text_len DESC, doc_id DESC LIMIT 10
"""


def q_links(sf_dir: str):
    """Out-link (web-graph edge) extraction from the parsed DOM — the
    reference Document's links collection as a derived table
    (/root/reference/src/node.zig:28-33)."""
    from zhtml_ray.pipelines.golden import ensure_golden
    from zhtml_ray.stages.node_table import LinksBatch
    ds = _pages(sf_dir)
    ensure_golden("links", sf_dir)
    return ds.map_batches(LinksBatch(), batch_format="pyarrow")


def q_link_pagerank(sf_dir: str):
    """Link-graph PageRank over the extracted out-link table (X76):
    parse → links → vectorized href resolution → distinct (src, dst)
    edges → 5 damped iterations with dangling-mass redistribution,
    ENTIRELY in int64 arithmetic (functions/graph.py) so the result is
    bit-identical across layouts/schedules/engines — the oracle is an
    independent DuckDB implementation (unrolled-CTE iterations) over
    the pinned links golden, certifying the distributed graph plan
    (merge joins + partial-combine aggregates), not a same-kernel
    replay."""
    from zhtml_ray.functions.graph import link_edges, pagerank
    from zhtml_ray.pipelines.golden import ensure_golden
    from zhtml_ray.stages.node_table import LinksBatch
    ds = _pages(sf_dir)
    ensure_golden("links", sf_dir)  # the oracle reads the links golden
    links = ds.map_batches(LinksBatch(), batch_format="pyarrow")
    # driver_budget below the sf0.01 edge count so the driver gate
    # exercises the broadcast-rank tier, not just the in-process one
    # (the merge-join tier is certified by the tier-differential pytest)
    return pagerank(link_edges(links), driver_budget=50_000)


def _sql_link_pagerank() -> str:
    from zhtml_ray.functions.graph import sql_pagerank
    from zhtml_ray.pipelines.golden import golden_sql
    return sql_pagerank(golden_sql("links"))


def q_link_hits(sf_dir: str):
    """X118: HITS hubs & authorities over the extracted link graph
    (Kleinberg 1999 — the directory-page vs destination-page split
    PageRank cannot express). Exact-integer max-rescaled rounds
    (functions/graph.py:hits), so the result is bit-identical across
    layouts/schedules; the oracle is an INDEPENDENT unrolled-CTE
    DuckDB implementation over the pinned links golden. driver_budget
    below the sf0.01 edge count so the driver gate exercises the
    distributed merge-join tier."""
    from zhtml_ray.functions.graph import hits, link_edges
    from zhtml_ray.pipelines.golden import ensure_golden
    from zhtml_ray.stages.node_table import LinksBatch
    ds = _pages(sf_dir)
    ensure_golden("links", sf_dir)
    links = ds.map_batches(LinksBatch(), batch_format="pyarrow")
    return hits(link_edges(links), driver_budget=50_000)


def _sql_link_hits() -> str:
    from zhtml_ray.functions.graph import sql_hits
    from zhtml_ray.pipelines.golden import golden_sql
    return sql_hits(golden_sql("links"))


def q_images(sf_dir: str):
    """Image (media-catalog) extraction from the parsed DOM — the
    reference Document's images collection as a derived table
    (/root/reference/src/node.zig:28-33), completing the links/images
    projection pair. (The forms collection is implemented too —
    stages/node_table.py:FormsBatch — but the driver fixture contains
    no <form> markup, so it is pytest-gated on synthetic pages instead
    of carrying a vacuous 0-row oracle.)"""
    from zhtml_ray.pipelines.golden import ensure_golden
    from zhtml_ray.stages.node_table import ImagesBatch
    ds = _pages(sf_dir)
    ensure_golden("images", sf_dir)
    return ds.map_batches(ImagesBatch(), batch_format="pyarrow")


def q_page_meta(sf_dir: str):
    """<head> metadata projection (title / html-lang / charset /
    viewport / description / canonical / meta count) — the crawl
    catalog row per page, with <title> text through the real RCDATA
    tokenizer and first-wins attribute semantics
    (stages/node_table.py:PageMetaBatch)."""
    from zhtml_ray.pipelines.golden import ensure_golden
    from zhtml_ray.stages.node_table import PageMetaBatch
    ds = _pages(sf_dir)
    ensure_golden("page_meta", sf_dir)
    return ds.map_batches(PageMetaBatch(), batch_format="pyarrow")


def q_table_cells(sf_dir: str):
    """HTML-table structured-data extraction (url, table_idx, row_idx,
    col_idx, header, cell_text) on top of the tree builder's real
    table semantics — foster-parented stray text must land OUTSIDE
    the table, implied sections inside
    (stages/node_table.py:TableCellsBatch)."""
    from zhtml_ray.pipelines.golden import ensure_golden
    from zhtml_ray.stages.node_table import TableCellsBatch
    ds = _pages(sf_dir)
    ensure_golden("table_cells", sf_dir)
    return ds.map_batches(TableCellsBatch(), batch_format="pyarrow")


def q_link_components(sf_dir: str):
    """Weakly-connected components of the link graph (X83): site/farm
    cluster discovery — the graph twin of the dedup clustering. Edges
    from the shared resolution kernel; components via the SAME
    distributed bounded-round min-label propagation that clusters
    near-duplicates (functions/dedup.py:label_propagation — one
    machinery, two operators). Oracle: an INDEPENDENT serial
    union-find over the pinned links golden (algorithm-independent,
    the strongest gate form)."""
    from zhtml_ray.functions.dedup import label_propagation
    from zhtml_ray.functions.graph import link_edges
    from zhtml_ray.pipelines.golden import ensure_golden
    from zhtml_ray.stages.node_table import LinksBatch

    ds = _pages(sf_dir)
    ensure_golden("link_components", sf_dir)
    links = ds.map_batches(LinksBatch(), batch_format="pyarrow")
    edges = link_edges(links)

    def to_keys(b):
        return b.rename_columns(["key_a", "key_b"])

    lbl = label_propagation(edges.map_batches(to_keys,
                                              batch_format="pyarrow"))
    return lbl.map_batches(
        lambda b: b.rename_columns(["node", "component"]),
        batch_format="pyarrow")


def q_link_triangles(sf_dir: str):
    """Exact triangle + wedge census of the link graph (X89): the
    global-clustering / link-farm diagnostic. Degree-oriented
    compact-forward counting (functions/graph.py:triangle_stats) —
    wedge candidates bounded O(m^1.5) by orientation, closure tested
    with one sort-merge semi-join; both outputs are exact int64, so
    no float pin. Oracle: an INDEPENDENT DuckDB three-way self-join
    over the pinned links golden — a completely different plan."""
    from zhtml_ray.functions.graph import link_edges, triangle_stats
    from zhtml_ray.pipelines.golden import ensure_golden
    from zhtml_ray.stages.node_table import LinksBatch
    ds = _pages(sf_dir)
    ensure_golden("links", sf_dir)
    links = ds.map_batches(LinksBatch(), batch_format="pyarrow")
    return triangle_stats(link_edges(links))


def _sql_link_triangles() -> str:
    from zhtml_ray.functions.graph import sql_triangle_stats
    from zhtml_ray.pipelines.golden import golden_sql
    return sql_triangle_stats(golden_sql("links"))


def q_crawl_depth(sf_dir: str):
    """BFS crawl depth of every url from the graph's entry points
    (X90): seeds = in-degree-0 nodes, bounded-round frontier expansion
    (one ``sortagg.key_join`` semi-join per round: broadcast
    ``pc.index_in`` fast tier / merge-join scale tier),
    grouped-min depth merge per round, unreached nodes at −1. Exact
    int64 — no pin. Oracle: independent unrolled-round DuckDB plan
    over the pinned links golden."""
    from zhtml_ray.functions.graph import (bfs_depth,
                                           indegree_zero_seeds,
                                           link_edges)
    from zhtml_ray.pipelines.golden import ensure_golden
    from zhtml_ray.stages.node_table import LinksBatch
    ds = _pages(sf_dir)
    ensure_golden("links", sf_dir)
    links = ds.map_batches(LinksBatch(), batch_format="pyarrow")
    edges = link_edges(links)
    return bfs_depth(edges, indegree_zero_seeds(edges), max_depth=6)


def _sql_crawl_depth() -> str:
    from zhtml_ray.functions.graph import sql_bfs_depth
    from zhtml_ray.pipelines.golden import golden_sql
    return sql_bfs_depth(golden_sql("links"), max_depth=6)


def q_link_cocitation(sf_dir: str):
    """Top co-cited page pairs (X110 — pages frequently linked from
    the same source; `functions/graph.py:cocitation_topk` docstring).
    Oracle: an INDEPENDENT DuckDB self-join plan over the pinned links
    golden."""
    from zhtml_ray.functions.graph import cocitation_topk, link_edges
    from zhtml_ray.pipelines.golden import ensure_golden
    from zhtml_ray.stages.node_table import LinksBatch
    ds = _pages(sf_dir)
    ensure_golden("links", sf_dir)
    links = ds.map_batches(LinksBatch(), batch_format="pyarrow")
    return cocitation_topk(link_edges(links))


def _sql_link_cocitation() -> str:
    from zhtml_ray.functions.graph import sql_cocitation_topk
    from zhtml_ray.pipelines.golden import golden_sql
    return sql_cocitation_topk(golden_sql("links"))


def q_link_degree_hist(sf_dir: str):
    """Link-graph degree-distribution histogram (X84): in/out degree →
    node count, zero-degree buckets included — the graph-shape
    diagnostic run before committing to a partitioning strategy (skew
    detection: a power-law in-degree tail means salting the contribution
    groupby)."""
    from zhtml_ray.functions.graph import degree_histogram, link_edges
    from zhtml_ray.pipelines.golden import ensure_golden
    from zhtml_ray.stages.node_table import LinksBatch
    ds = _pages(sf_dir)
    ensure_golden("links", sf_dir)
    links = ds.map_batches(LinksBatch(), batch_format="pyarrow")
    return degree_histogram(link_edges(links))


def _sql_link_degree_hist() -> str:
    from zhtml_ray.functions.graph import sql_degree_histogram
    from zhtml_ray.pipelines.golden import golden_sql
    return sql_degree_histogram(golden_sql("links"))


def q_anchor_terms(sf_dir: str, k: int = 3):
    """Anchor-text term index (X77): for every resolved link target,
    the top-``k`` incoming anchor terms by (count DESC, term ASC) —
    the classic web-search signal where OTHER pages' link text
    describes the target. Per-batch: vectorized href resolution +
    ListArray term explode + (dst, term) count pre-combine; then one
    sorted run-sum pass and one sorted-head-k pass. Raw anchor
    text never reaches a shuffle — only (dst, term, partial_count)
    rows."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from zhtml_ray.functions.graph import resolve_dst
    from zhtml_ray.functions.textstats import PY_WS_RE2_IN
    from zhtml_ray.pipelines.golden import ensure_golden
    from zhtml_ray.stages.node_table import LinksBatch
    from zhtml_ray.stages.sortagg import sorted_head_n_per_group
    from zhtml_ray.stages.util import compact_blocks

    ws_pat = "[" + PY_WS_RE2_IN + "]+"
    ds = _pages(sf_dir)
    ensure_golden("links", sf_dir)  # the oracle reads the links golden
    links = ds.map_batches(LinksBatch(), batch_format="pyarrow")

    def term_partials(b: pa.Table) -> pa.Table:
        dst = resolve_dst(b["url"], b["href"])
        keep = pc.and_kleene(pc.is_valid(dst),
                             pc.not_equal(dst, b["url"]))
        t = pa.table({"dst": dst, "anchor_text": b["anchor_text"]}) \
            .filter(pc.fill_null(keep, False))
        la = pc.split_pattern_regex(
            t["anchor_text"], pattern=ws_pat).combine_chunks()
        lens = pc.list_value_length(la).to_numpy(zero_copy_only=False)
        parent = np.repeat(np.arange(len(lens)), lens)
        flat = la.flatten()
        tt = pa.table({
            "dst": t["dst"].combine_chunks().take(
                pa.array(parent, pa.int64())),
            "term": flat,
        }).filter(pc.not_equal(flat, ""))
        g = tt.group_by(["dst", "term"]).aggregate([("dst", "count")])
        return g.rename_columns(["dst", "term", "cnt"])

    # sorted_sum, not groupby().aggregate(): ~8× cheaper on
    # high-cardinality keys (BENCH/BASELINE.md sorted_sum section)
    from zhtml_ray.stages.sortagg import sorted_sum_per_group
    cnt = sorted_sum_per_group(
        links.map_batches(term_partials, batch_format="pyarrow"),
        ["dst", "term"], ["cnt"])

    def neg(b: pa.Table) -> pa.Table:
        return b.append_column("neg", pc.negate_checked(b["cnt"]))

    ranked = sorted_head_n_per_group(
        compact_blocks(cnt.map_batches(neg, batch_format="pyarrow")),
        ["dst"], ["neg", "term"], k)
    return ranked.map_batches(lambda b: b.drop_columns(["neg"]),
                              batch_format="pyarrow")


def _sql_anchor_terms(k: int = 3) -> str:
    from zhtml_ray.functions.graph import sql_resolve_dst_expr
    from zhtml_ray.functions.textstats import PY_WS_RE2_IN
    from zhtml_ray.pipelines.golden import golden_sql
    ws = "[" + PY_WS_RE2_IN + "]+"
    return f"""
WITH res AS (
  SELECT url AS src, {sql_resolve_dst_expr()} AS dst, anchor_text
  FROM ({golden_sql("links")})),
terms AS (
  SELECT dst, u.t AS term
  FROM res, unnest(regexp_split_to_array(anchor_text, '{ws}')) AS u(t)
  WHERE dst IS NOT NULL AND dst <> src AND u.t <> ''),
cnt AS (SELECT dst, term, count(*)::BIGINT AS cnt
        FROM terms GROUP BY 1, 2)
SELECT dst, term, cnt FROM cnt
QUALIFY row_number() OVER (PARTITION BY dst
                           ORDER BY cnt DESC, term) <= {k}
"""


def q_node_table(sf_dir: str):
    """Flattened DOM node table per document (SURVEY.md §1.3): the full
    columnar index-linked tree, JSON-projected for the gate and oracled
    against the serial pinned run."""
    from zhtml_ray.pipelines.golden import ensure_golden, node_table_project
    from zhtml_ray.stages.node_table import NodeTableBatch
    ds = _pages(sf_dir)
    ensure_golden("node_table", sf_dir)
    out = ds.map_batches(NodeTableBatch(), batch_format="pyarrow")
    return out.map_batches(node_table_project, batch_format="pyarrow")


def q_link_spam_signals(sf_dir: str):
    """Per-page link-audit features (link counts, distinct targets,
    nofollow count, anchor char mass, empty anchors) — the SEO-spam /
    boilerplate signals a crawl-quality model consumes. ZERO shuffles:
    a page's links are emitted contiguously by the extraction batch,
    so a per-batch groupby is already the exact per-url aggregate.
    Cross-engine oracle: DuckDB recomputes every count from the pinned
    links golden."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from zhtml_ray.pipelines.golden import ensure_golden
    from zhtml_ray.stages.node_table import LinksBatch

    links_fn = LinksBatch()

    def signals(batch: pa.Table) -> pa.Table:
        t = links_fn(batch)
        nofollow = pc.cast(pc.match_substring(t["rel"], "nofollow"),
                           pa.int64())
        empty = pc.cast(pc.equal(pc.utf8_trim(t["anchor_text"], " "),
                                 ""), pa.int64())
        alen = pc.cast(pc.utf8_length(t["anchor_text"]), pa.int64())
        g = pa.table({"url": t["url"], "href": t["href"],
                      "nf": nofollow, "ea": empty, "al": alen}) \
            .group_by("url") \
            .aggregate([("href", "count"), ("href", "count_distinct"),
                        ("nf", "sum"), ("al", "sum"), ("ea", "sum")])
        return g.rename_columns(["url", "n_links", "n_distinct_hrefs",
                                 "n_nofollow", "anchor_chars",
                                 "n_empty_anchor"])

    ds = _pages(sf_dir)
    ensure_golden("links", sf_dir)
    return ds.map_batches(signals, batch_format="pyarrow")


def _sql_link_spam_signals() -> str:
    from zhtml_ray.pipelines.golden import _current_dir
    return f"""
SELECT url, count(*)::BIGINT AS n_links,
       count(DISTINCT href)::BIGINT AS n_distinct_hrefs,
       count(*) FILTER (contains(rel, 'nofollow'))::BIGINT
           AS n_nofollow,
       COALESCE(sum(len(anchor_text)), 0)::BIGINT AS anchor_chars,
       count(*) FILTER (trim(anchor_text, ' ') = '')::BIGINT
           AS n_empty_anchor
FROM read_parquet('{_current_dir()}/links.parquet')
GROUP BY url
"""


def q_page_structure(sf_dir: str):
    """Per-page DOM structure statistics (element/heading/paragraph/
    link/text-char counts, max depth) — the structural features a
    layout-aware quality model consumes. Pure map over the parsed
    tree. Oracled ALGORITHM-INDEPENDENTLY: the SQL side recomputes
    every count in DuckDB's JSON engine from the pinned node_table
    golden (unnest over the canonical nodes_json), so the stats
    themselves are cross-engine-checked, not pinned."""
    import numpy as np
    import pyarrow as pa

    from zhtml_ray.html.dom import ELEMENT, TEXT
    from zhtml_ray.pipelines.golden import ensure_golden
    from zhtml_ray.stages.node_table import parse_flat

    heads = frozenset(("h1", "h2", "h3", "h4", "h5", "h6"))

    def stats(batch: pa.Table) -> pa.Table:
        htmls = batch["html"].to_pylist()
        n = len(htmls)
        out = {k: np.zeros(n, np.int64) for k in
               ("n_nodes", "n_elements", "n_text_chars", "n_headings",
                "n_paras", "n_links", "max_depth")}
        for i, h in enumerate(htmls):
            try:
                flat = parse_flat(h)
            except Exception:  # noqa: BLE001 per-row isolation
                continue
            kind = np.asarray(flat["kind"], np.int8)
            depth = np.asarray(flat["depth"], np.int64)
            tags = flat["tag"]
            texts = flat["text"]
            out["n_nodes"][i] = len(kind)
            is_el = kind == ELEMENT
            out["n_elements"][i] = int(is_el.sum())
            out["n_text_chars"][i] = sum(
                len(t) for k, t in zip(flat["kind"], texts) if k == TEXT)
            out["n_headings"][i] = sum(
                1 for e, t in zip(is_el, tags) if e and t in heads)
            out["n_paras"][i] = sum(
                1 for e, t in zip(is_el, tags) if e and t == "p")
            out["n_links"][i] = sum(
                1 for e, t in zip(is_el, tags) if e and t == "a")
            out["max_depth"][i] = int(depth.max()) if len(depth) else 0
        return pa.table({"url": batch["url"],
                         **{k: pa.array(v) for k, v in out.items()}})

    ds = _pages(sf_dir)
    ensure_golden("node_table", sf_dir)
    return ds.map_batches(stats, batch_format="pyarrow")


def _sql_page_structure() -> str:
    from zhtml_ray.pipelines.golden import _current_dir
    return f"""
WITH n AS (
  SELECT url, unnest(from_json(nodes_json, '["JSON"]')) AS j
  FROM read_parquet('{_current_dir()}/node_table.parquet')
), s AS (
  -- json_extract function form: the -> operator misparses inside
  -- AND-ed FILTER predicates on this DuckDB (precedence), probed
  SELECT url,
         count(*)::BIGINT AS n_nodes,
         count(*) FILTER (CAST(json_extract(j, '$[1]') AS INT) = 2)
             ::BIGINT AS n_elements,
         COALESCE(sum(len(json_extract_string(j, '$[7]')))
                  FILTER (CAST(json_extract(j, '$[1]') AS INT) = 3),
                  0)::BIGINT AS n_text_chars,
         count(*) FILTER (CAST(json_extract(j, '$[1]') AS INT) = 2
             AND json_extract_string(j, '$[2]') IN
                 ('h1','h2','h3','h4','h5','h6'))::BIGINT AS n_headings,
         count(*) FILTER (CAST(json_extract(j, '$[1]') AS INT) = 2
             AND json_extract_string(j, '$[2]') = 'p')::BIGINT
             AS n_paras,
         count(*) FILTER (CAST(json_extract(j, '$[1]') AS INT) = 2
             AND json_extract_string(j, '$[2]') = 'a')::BIGINT
             AS n_links,
         COALESCE(max(CAST(json_extract(j, '$[4]') AS BIGINT)), 0)
             AS max_depth
  FROM n GROUP BY url
)
SELECT g.url,
       COALESCE(s.n_nodes, 0) AS n_nodes,
       COALESCE(s.n_elements, 0) AS n_elements,
       COALESCE(s.n_text_chars, 0) AS n_text_chars,
       COALESCE(s.n_headings, 0) AS n_headings,
       COALESCE(s.n_paras, 0) AS n_paras,
       COALESCE(s.n_links, 0) AS n_links,
       COALESCE(s.max_depth, 0) AS max_depth
FROM read_parquet('{_current_dir()}/node_table.parquet') g
LEFT JOIN s USING (url)
"""


def q_token_stats(sf_dir: str):
    """Per-document tokenizer statistics (token counts by kind, error
    count) — the tokenizer-level debug output of SURVEY.md §1.3."""
    from zhtml_ray.pipelines.golden import ensure_golden
    from zhtml_ray.stages.node_table import TokenStatsBatch
    ds = _pages(sf_dir)
    ensure_golden("token_stats", sf_dir)
    return ds.map_batches(TokenStatsBatch(), batch_format="pyarrow")


def q_cust_orders_full_outer(sf_dir: str, segment: str = "AUTOMOBILE",
                             prio: str = "1-URGENT"):
    """FULL OUTER join (X96 — completes the join family: broadcast /
    semi / anti / left / as-of / range / full): segment customers ⟗
    per-customer urgent-order counts. Both null sides are real rows —
    segment customers with no urgent order (null count) AND urgent-
    ordering customers outside the segment (null acctbal). One range
    shuffle via ``sorted_lookup_join(how='full')``; the counts side is
    a per-batch partial combine first, so raw orders never reach the
    join."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from zhtml_ray.stages.sortagg import (sorted_lookup_join,
                                          sorted_sum_per_group)
    from zhtml_ray.stages.util import drop_empty_blocks

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_orderpriority"])

    def cnt_partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["o_orderpriority"], prio))
        g = pa.table({"c_custkey": t["o_custkey"]}) \
            .group_by("c_custkey").aggregate([("c_custkey", "count")])
        return g.rename_columns(["c_custkey", "n_urgent"])

    from zhtml_ray.stages.util import compact_blocks
    counts = compact_blocks(sorted_sum_per_group(
        drop_empty_blocks(
            orders.map_batches(cnt_partial, batch_format="pyarrow")),
        ["c_custkey"], ["n_urgent"]))

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_acctbal",
                                    "c_mktsegment"])

    def seg(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["c_mktsegment"], segment))
        return t.select(["c_custkey", "c_acctbal"])

    return sorted_lookup_join(
        drop_empty_blocks(cust.map_batches(seg, batch_format="pyarrow")),
        counts, "c_custkey", ["n_urgent"], how="full")


SQL_CUST_ORDERS_FULL_OUTER = """
WITH cust AS (SELECT c_custkey, c_acctbal FROM customer
              WHERE c_mktsegment = 'AUTOMOBILE'),
cnt AS (SELECT o_custkey AS c_custkey, count(*)::BIGINT AS n_urgent
        FROM orders WHERE o_orderpriority = '1-URGENT' GROUP BY 1)
SELECT c_custkey, cust.c_acctbal, cnt.n_urgent
FROM cust FULL OUTER JOIN cnt USING (c_custkey)
"""


def q7_nation_volume(sf_dir: str,
                     bloc_a=("NATION_1", "NATION_2", "NATION_3"),
                     bloc_b=("NATION_4", "NATION_5", "NATION_6"),
                     lo: str = "1996-01-01", hi: str = "1998-01-01"):
    """TPC-H Q7 shape (bilateral shipping volume: revenue between two
    trade blocs by supplier-nation / customer-nation / ship year; a
    bloc rather than a single nation so the fixture has qualifying
    rows at every scale). Same scale-first spine as
    ``q5_region_supplier_volume`` — three range shuffles, zero hash
    joins, broadcasts limited to the ≤25-row nation dim:

      1. orders ⋈ customer on custkey → (o_orderkey, c_nationkey);
      2. date-filtered lineitem (rev + ship year precomputed map-side)
         ⋈ that lookup on orderkey;
      3. ⋈ supplier on suppkey → + s_nationkey, then the nation-PAIR
         filter runs map-side against the two broadcast keys, pruning
         ~99.7% of rows before any aggregation.

    Per-(supp_nation, cust_nation, year) partials combine map-side;
    ≤ 2×2×years rows reach the driver. Revenue sums are EXACT int64
    1e-4-dollar units on both sides (r4, see _rev_units) — no pin."""
    import datetime as _dt

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from zhtml_ray.stages.sortagg import sorted_lookup_join
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    name_of = dict(zip(nation["n_nationkey"].to_pylist(),
                       nation["n_name"].to_pylist()))
    key_of = {v: k for k, v in name_of.items()}
    ka = pa.array(sorted(key_of[n] for n in bloc_a), pa.int32())
    kb = pa.array(sorted(key_of[n] for n in bloc_b), pa.int32())

    lo_ts = _dt.datetime.fromisoformat(lo)
    hi_ts = _dt.datetime.fromisoformat(hi)

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_nationkey"])
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey"])

    def o_prep(b: pa.Table) -> pa.Table:
        return b.rename_columns(["o_orderkey", "c_custkey"])

    # shuffle 1: each order learns its customer's nation
    o_nat = compact_blocks(sorted_lookup_join(
        orders.map_batches(o_prep, batch_format="pyarrow"),
        cust, "c_custkey", ["c_nationkey"], how="inner")) \
        .drop_columns(["c_custkey"])

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_suppkey",
                                    "l_extendedprice", "l_discount",
                                    "l_shipdate"])

    def l_prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(b["l_shipdate"],
                                        pa.scalar(lo_ts)),
                       pc.less(b["l_shipdate"], pa.scalar(hi_ts)))
        t = b.filter(keep)
        rev = _rev_units(t["l_extendedprice"], t["l_discount"])
        return pa.table({"o_orderkey": t["l_orderkey"],
                         "s_suppkey": t["l_suppkey"], "rev": rev,
                         "l_year": pc.cast(pc.year(t["l_shipdate"]),
                                           pa.int64())})

    line_p = drop_empty_blocks(
        line.map_batches(l_prep, batch_format="pyarrow"))
    # shuffle 2: lineitem rows get the order's customer nation
    li_nat = compact_blocks(sorted_lookup_join(
        line_p, o_nat, "o_orderkey", ["c_nationkey"], how="inner"))

    supp = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_nationkey"])
    # shuffle 3: attach the supplier's nation
    with_s = sorted_lookup_join(li_nat, supp, "s_suppkey",
                                ["s_nationkey"], how="inner")

    def partial(b: pa.Table) -> pa.Table:
        cn = pc.cast(b["c_nationkey"], pa.int32())
        sn = pc.cast(b["s_nationkey"], pa.int32())
        fwd = pc.and_(pc.is_in(sn, value_set=ka),
                      pc.is_in(cn, value_set=kb))
        rev_ = pc.and_(pc.is_in(sn, value_set=kb),
                       pc.is_in(cn, value_set=ka))
        t = b.filter(pc.fill_null(pc.or_(fwd, rev_), False))
        g = pa.table({
            "s_nat": pc.cast(t["s_nationkey"], pa.int32()),
            "c_nat": pc.cast(t["c_nationkey"], pa.int32()),
            "l_year": t["l_year"], "rev": t["rev"]}) \
            .group_by(["s_nat", "c_nat", "l_year"]) \
            .aggregate([("rev", "sum")])
        return g.rename_columns(["s_nat", "c_nat", "l_year", "part_rev"])

    agg = drop_empty_blocks(
        with_s.map_batches(partial, batch_format="pyarrow")) \
        .groupby(["s_nat", "c_nat", "l_year"]) \
        .aggregate(Sum("part_rev", alias_name="revenue"))
    pdf = agg.to_pandas()
    if pdf.empty:  # no qualifying rows at this scale: typed empty
        import pandas as pd
        return pd.DataFrame({"supp_nation": pd.Series([], dtype=object),
                             "cust_nation": pd.Series([], dtype=object),
                             "l_year": pd.Series([], dtype="int64"),
                             "revenue": pd.Series([], dtype="float64")})
    pdf["supp_nation"] = pdf["s_nat"].map(name_of)
    pdf["cust_nation"] = pdf["c_nat"].map(name_of)
    pdf["revenue"] = pdf["revenue"] / 1e4
    return pdf[["supp_nation", "cust_nation", "l_year", "revenue"]] \
        .sort_values(["supp_nation", "cust_nation", "l_year"]) \
        .reset_index(drop=True)


SQL_Q7_NATION_VOLUME = f"""
SELECT supp_nation, cust_nation, l_year,
       sum(volume) / 1e4 AS revenue
FROM (SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
             EXTRACT(year FROM l_shipdate) AS l_year,
             {_REV_U_SQL} AS volume
      FROM supplier
      JOIN lineitem ON s_suppkey = l_suppkey
      JOIN orders   ON o_orderkey = l_orderkey
      JOIN customer ON c_custkey = o_custkey
      JOIN nation ns ON s_nationkey = ns.n_nationkey
      JOIN nation nc ON c_nationkey = nc.n_nationkey
      WHERE ((ns.n_name IN ('NATION_1', 'NATION_2', 'NATION_3')
              AND nc.n_name IN ('NATION_4', 'NATION_5', 'NATION_6'))
          OR (ns.n_name IN ('NATION_4', 'NATION_5', 'NATION_6')
              AND nc.n_name IN ('NATION_1', 'NATION_2', 'NATION_3')))
        AND l_shipdate >= TIMESTAMP '1996-01-01'
        AND l_shipdate <  TIMESTAMP '1998-01-01') t
GROUP BY supp_nation, cust_nation, l_year
ORDER BY supp_nation, cust_nation, l_year
"""


def q10_returned_items(sf_dir: str, lo: str = "1996-01-01",
                       hi: str = "1996-04-01", k: int = 20):
    """TPC-H Q10 shape (top customers by revenue lost to returns in a
    quarter). Scale-first: returned lineitem pre-aggregates revenue
    per orderkey MAP-SIDE, joins the date-filtered orders via one
    range shuffle, re-aggregates per custkey with
    ``sorted_sum_per_group`` (no hash groupby on the high-cardinality
    key), then ONE more range shuffle attaches customer attributes.
    Only the pinned top-k sort output lands on the driver. Nation
    names resolve from the broadcast ≤25-row dim."""
    import datetime as _dt

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    from zhtml_ray.stages.sortagg import (sorted_lookup_join,
                                          sorted_sum_per_group)
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    lo_ts = _dt.datetime.fromisoformat(lo)
    hi_ts = _dt.datetime.fromisoformat(hi)

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    name_of = dict(zip(nation["n_nationkey"].to_pylist(),
                       nation["n_name"].to_pylist()))

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey",
                                      "o_orderdate"])

    def o_filter(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(b["o_orderdate"],
                                        pa.scalar(lo_ts)),
                       pc.less(b["o_orderdate"], pa.scalar(hi_ts)))
        return b.filter(keep).select(["o_orderkey", "o_custkey"])

    o_f = drop_empty_blocks(
        orders.map_batches(o_filter, batch_format="pyarrow"))

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_returnflag",
                                    "l_extendedprice", "l_discount"])

    def l_partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["l_returnflag"], "R"))
        rev = _rev_units(t["l_extendedprice"], t["l_discount"])
        g = pa.table({"o_orderkey": t["l_orderkey"], "rev": rev}) \
            .group_by("o_orderkey").aggregate([("rev", "sum")])
        return g.rename_columns(["o_orderkey", "rev"])

    rev_per_order = drop_empty_blocks(
        line.map_batches(l_partial, batch_format="pyarrow"))
    # shuffle 1: returned revenue joins its (date-qualified) order
    joined = compact_blocks(sorted_lookup_join(
        rev_per_order, o_f, "o_orderkey", ["o_custkey"], how="inner"))

    def c_prep(b: pa.Table) -> pa.Table:
        return pa.table({"c_custkey": b["o_custkey"], "rev": b["rev"]})

    # shuffle 2: revenue per customer (range sort + C-speed run sums)
    per_cust = compact_blocks(sorted_sum_per_group(
        joined.map_batches(c_prep, batch_format="pyarrow"),
        ["c_custkey"], ["rev"]))

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_name", "c_acctbal",
                                    "c_nationkey"])
    # shuffle 3: attach customer attributes to the per-customer sums
    with_c = sorted_lookup_join(per_cust, cust, "c_custkey",
                                ["c_name", "c_acctbal", "c_nationkey"],
                                how="inner")

    def pin(b: pa.Table) -> pa.Table:
        # exact int-unit sum → dollars (identical double both sides)
        r = pc.divide(pc.cast(b["rev"], pa.float64()), pa.scalar(1e4))
        return b.set_column(b.schema.get_field_index("rev"), "rev", r)

    # compact before the top-k sort: sortagg output is ~2 tiny blocks
    # per input block and Ray's range sort pays O(blocks x partitions)
    # block parts (CLAUDE.md sort-chain rule)
    top = compact_blocks(with_c.map_batches(pin, batch_format="pyarrow")) \
        .sort(["rev", "c_custkey"], descending=[True, False]).limit(k)
    pdf = top.to_pandas()
    pdf["revenue"] = pdf["rev"]
    pdf["n_name"] = pdf["c_nationkey"].map(name_of)
    return pdf[["c_custkey", "c_name", "revenue", "c_acctbal",
                "n_name"]] \
        .sort_values(["revenue", "c_custkey"], ascending=[False, True]) \
        .reset_index(drop=True)


SQL_Q10_RETURNED_ITEMS = f"""
SELECT c_custkey, c_name,
       sum({_REV_U_SQL}) / 1e4 AS revenue,
       c_acctbal, n_name
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN nation   ON c_nationkey = n_nationkey
WHERE o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1996-04-01'
  AND l_returnflag = 'R'
GROUP BY c_custkey, c_name, c_acctbal, n_name
ORDER BY revenue DESC, c_custkey
LIMIT 20
"""


def q18_large_orders(sf_dir: str, qty: float = 300.0, k: int = 100):
    """TPC-H Q18 shape (large-volume orders: customers whose order
    totals more than ``qty`` units). The HAVING-on-a-big-groupby runs
    as ``sorted_sum_per_group`` over lineitem (range sort, C-speed run
    sums — never a hash groupby on the 10^11-row key), the survivors
    (a tiny fraction) join orders then customer via range shuffles
    whose left side is already pruned. total_qty sums integers stored
    as doubles — exact, layout-invariant, no pin needed."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from zhtml_ray.stages.sortagg import sorted_lookup_join
    from zhtml_ray.stages.sortagg import sorted_sum_per_group
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_quantity"])

    def l_partial(b: pa.Table) -> pa.Table:
        g = b.group_by("l_orderkey").aggregate([("l_quantity", "sum")])
        return g.rename_columns(["o_orderkey", "total_qty"])

    per_order = compact_blocks(sorted_sum_per_group(
        line.map_batches(l_partial, batch_format="pyarrow"),
        ["o_orderkey"], ["total_qty"]))

    def big_only(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater(b["total_qty"], pa.scalar(qty)))

    big = drop_empty_blocks(
        per_order.map_batches(big_only, batch_format="pyarrow"))

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey",
                                      "o_orderdate", "o_totalprice"])
    with_o = compact_blocks(sorted_lookup_join(
        big, orders, "o_orderkey",
        ["o_custkey", "o_orderdate", "o_totalprice"], how="inner"))

    def c_key(b: pa.Table) -> pa.Table:
        return b.rename_columns(
            ["o_orderkey", "total_qty", "c_custkey", "o_orderdate",
             "o_totalprice"])

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_name"])
    with_c = sorted_lookup_join(
        with_o.map_batches(c_key, batch_format="pyarrow"),
        cust, "c_custkey", ["c_name"], how="inner")

    top = compact_blocks(with_c) \
        .sort(["o_totalprice", "o_orderdate", "o_orderkey"],
              descending=[True, False, False]).limit(k)
    pdf = top.to_pandas()
    return pdf[["c_name", "c_custkey", "o_orderkey", "o_orderdate",
                "o_totalprice", "total_qty"]] \
        .sort_values(["o_totalprice", "o_orderdate", "o_orderkey"],
                     ascending=[False, True, True]) \
        .reset_index(drop=True)


SQL_Q18_LARGE_ORDERS = """
SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
       sum(l_quantity) AS total_qty
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON o_orderkey = l_orderkey
GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
HAVING sum(l_quantity) > 300.0
ORDER BY o_totalprice DESC, o_orderdate, o_orderkey
LIMIT 100
"""


def q19_disjunctive_revenue(sf_dir: str, terms=None):
    """TPC-H Q19 shape (disjunctive brand/size/quantity predicate
    revenue). ZERO shuffles: the part dim broadcasts once as sorted
    partkey-aligned (brand-code, size) arrays via ``ray.put``; one
    pure-map pass over lineitem evaluates the OR-of-ANDs vectorized in
    numpy and emits a single partial row per batch; the global reduce
    is ``Dataset.aggregate`` over ≤ #blocks rows. Revenue is an EXACT
    int64 1e-4-dollar unit sum (r4, see _rev_units) — bit-identical
    on both sides, no float pin needed at any scale."""
    import math

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from zhtml_ray.stages.util import stateless_stage

    if terms is None:
        terms = (("Brand#1", 1, 15, 1.0, 20.0),
                 ("Brand#2", 10, 30, 10.0, 30.0),
                 ("Brand#3", 20, 50, 20.0, 40.0))

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand", "p_size"])
    keys = np.asarray(part["p_partkey"].to_pylist(), np.int64)
    order = np.argsort(keys)
    brands = sorted({t[0] for t in terms})
    code_of = {b: i for i, b in enumerate(brands)}
    codes = np.array([code_of.get(b, -1)
                      for b in part["p_brand"].to_pylist()],
                     np.int32)[order]
    sizes = np.asarray(part["p_size"].to_pylist(), np.int32)[order]
    lookup_ref = ray.put((keys[order], codes, sizes))
    term_rows = tuple((code_of[b], s_lo, s_hi, q_lo, q_hi)
                      for b, s_lo, s_hi, q_lo, q_hi in terms)

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_partkey", "l_quantity",
                                  "l_extendedprice", "l_discount"])

    class Partial:
        def __init__(self):
            self.keys, self.codes, self.sizes = ray.get(lookup_ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            pk = b["l_partkey"].to_numpy(zero_copy_only=False)
            qty = b["l_quantity"].to_numpy(zero_copy_only=False)
            idx, found = _bcast_lookup(self.keys, pk)
            code, size = self.codes[idx], self.sizes[idx]
            keep = np.zeros(len(pk), bool)
            for bc, s_lo, s_hi, q_lo, q_hi in term_rows:
                keep |= ((code == bc) & (size >= s_lo) & (size <= s_hi)
                         & (qty >= q_lo) & (qty <= q_hi))
            keep &= found  # inner-join: unmatched partkeys drop
            t = b.filter(pa.array(keep))
            rev = _rev_units(t["l_extendedprice"], t["l_discount"])
            return pa.table({"rev": pa.array(
                [int(pc.sum(rev).as_py() or 0)], pa.int64())})

    parts = ds.map_batches(stateless_stage(Partial),
                           batch_format="pyarrow")
    got = parts.aggregate(Sum("rev", alias_name="rev"))
    import pandas as pd
    return pd.DataFrame({"revenue": [int(got["rev"] or 0) / 1e4]})


SQL_Q19_DISJUNCTIVE_REVENUE = f"""
SELECT sum({_REV_U_SQL}) / 1e4 AS revenue
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE (p_brand = 'Brand#1' AND p_size BETWEEN 1 AND 15
       AND l_quantity BETWEEN 1.0 AND 20.0)
   OR (p_brand = 'Brand#2' AND p_size BETWEEN 10 AND 30
       AND l_quantity BETWEEN 10.0 AND 30.0)
   OR (p_brand = 'Brand#3' AND p_size BETWEEN 20 AND 50
       AND l_quantity BETWEEN 20.0 AND 40.0)
"""


def q11_important_parts(sf_dir: str, frac_inv: float = 500.0):
    """TPC-H Q11 shape (parts whose value within a nation exceeds
    1/``frac_inv`` of that nation's total — the HAVING-against-a-
    correlated-total form; lineitem×supplier stands in for partsupp).
    Scale-first: ONE range shuffle attaches the supplier nation, ONE
    ``sorted_sum_per_group`` aggregates (nation, part) values, the
    ≤ |nations| totals reduce from per-batch partials and broadcast
    as a dict; the share filter is then a pure map. Both the
    per-part value and the nation total are 2-dp-pinned BEFORE the
    comparison so the >-boundary is the identical double on both
    sides. 2-dp is GRID-SAFE here: values are sums of raw 2-dp
    extendedprice (and the total sums 2-dp-pinned values), so every
    achievable sum sits on the 0.01 grid, half a grid step from any
    0.005-offset pin boundary (r4 grid rule, see _rev_units)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from zhtml_ray.stages.sortagg import (sorted_lookup_join,
                                          sorted_sum_per_group)
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    name_of = dict(zip(nation["n_nationkey"].to_pylist(),
                       nation["n_name"].to_pylist()))

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_partkey", "l_suppkey",
                                    "l_extendedprice"])

    def l_prep(b: pa.Table) -> pa.Table:
        return pa.table({"s_suppkey": b["l_suppkey"],
                         "l_partkey": b["l_partkey"],
                         "val": b["l_extendedprice"]})

    supp = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_nationkey"])
    # shuffle 1: attach the supplier's nation to every lineitem row
    with_n = compact_blocks(sorted_lookup_join(
        line.map_batches(l_prep, batch_format="pyarrow"),
        supp, "s_suppkey", ["s_nationkey"], how="inner"))

    def pair_partial(b: pa.Table) -> pa.Table:
        g = pa.table({"n": pc.cast(b["s_nationkey"], pa.int32()),
                      "p": b["l_partkey"], "val": b["val"]}) \
            .group_by(["n", "p"]).aggregate([("val", "sum")])
        return g.rename_columns(["n", "p", "val"])

    # shuffle 2: exact (nation, part) sums, then 2-dp pin map-side
    per_part = compact_blocks(sorted_sum_per_group(
        drop_empty_blocks(
            with_n.map_batches(pair_partial, batch_format="pyarrow")),
        ["n", "p"], ["val"]))

    def pin(b: pa.Table) -> pa.Table:
        v = pc.divide(pc.floor(pc.add(pc.multiply(b["val"],
                                                  pa.scalar(1e2)),
                                      pa.scalar(0.5))), pa.scalar(1e2))
        return b.set_column(b.schema.get_field_index("val"), "val", v)

    pinned = per_part.map_batches(pin, batch_format="pyarrow") \
        .materialize()

    def tot_partial(b: pa.Table) -> pa.Table:
        g = pa.table({"n": b["n"], "t": b["val"]}) \
            .group_by("n").aggregate([("t", "sum")])
        return g.rename_columns(["n", "part_t"])

    tots = drop_empty_blocks(
        pinned.map_batches(tot_partial, batch_format="pyarrow")) \
        .groupby("n").aggregate(Sum("part_t", alias_name="t")) \
        .to_pandas()
    import math
    tot_of = {int(r.n): math.floor(r.t * 1e2 + 0.5) / 1e2
              for r in tots.itertuples()}
    tot_ref = ray.put(tot_of)

    def share_filter(b: pa.Table) -> pa.Table:
        tmap = ray.get(tot_ref)
        tot = np.array([tmap[int(x)] for x in
                        b["n"].to_numpy(zero_copy_only=False)])
        keep = b["val"].to_numpy(zero_copy_only=False) * frac_inv > tot
        return b.filter(pa.array(keep))

    kept = drop_empty_blocks(
        pinned.map_batches(share_filter, batch_format="pyarrow"))
    pdf = kept.to_pandas()
    if pdf.empty:
        import pandas as pd
        return pd.DataFrame({"n_name": pd.Series([], dtype=object),
                             "l_partkey": pd.Series([], dtype="int64"),
                             "value": pd.Series([], dtype="float64")})
    pdf["n_name"] = pdf["n"].map(name_of)
    pdf["l_partkey"] = pdf["p"]
    pdf["value"] = pdf["val"]
    return pdf[["n_name", "l_partkey", "value"]] \
        .sort_values(["n_name", "value", "l_partkey"],
                     ascending=[True, False, True]) \
        .reset_index(drop=True)


SQL_Q11_IMPORTANT_PARTS = """
WITH v AS (
  SELECT n_name, l_partkey,
         floor(sum(l_extendedprice) * 1e2 + 0.5) / 1e2 AS value
  FROM lineitem
  JOIN supplier ON l_suppkey = s_suppkey
  JOIN nation   ON s_nationkey = n_nationkey
  GROUP BY n_name, l_partkey
), t AS (
  SELECT n_name, floor(sum(value) * 1e2 + 0.5) / 1e2 AS tot
  FROM v GROUP BY n_name
)
SELECT v.n_name, v.l_partkey, v.value
FROM v JOIN t USING (n_name)
WHERE v.value * 500.0 > t.tot
ORDER BY v.n_name, v.value DESC, v.l_partkey
"""


def q12_late_shipments(sf_dir: str, days: int = 90):
    """TPC-H Q12 shape (shipping-mode priority pivot; the fixture has
    no l_shipmode/commitdate, so the bucket is "shipped more than
    ``days`` after order" — same join + CASE-pivot aggregate). ONE
    range shuffle attaches (o_orderdate, o_orderpriority) to lineitem;
    the 2×2 pivot counts combine map-side and only ≤2 rows reach the
    driver. The lateness compare is exact integer microseconds."""
    import datetime as _dt

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    from zhtml_ray.stages.sortagg import sorted_lookup_join
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_shipdate"])
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderdate",
                                      "o_orderpriority"])

    def l_prep(b: pa.Table) -> pa.Table:
        return b.rename_columns(["o_orderkey", "l_shipdate"])

    joined = compact_blocks(sorted_lookup_join(
        line.map_batches(l_prep, batch_format="pyarrow"), orders,
        "o_orderkey", ["o_orderdate", "o_orderpriority"], how="inner"))

    cut = _dt.timedelta(days=days)

    def pivot_partial(b: pa.Table) -> pa.Table:
        gap = pc.subtract(b["l_shipdate"], b["o_orderdate"])
        late = pc.greater(gap, pa.scalar(cut))
        high = pc.is_in(b["o_orderpriority"],
                        value_set=pa.array(["1-URGENT", "2-HIGH"]))
        g = pa.table({"late": late,
                      "h": pc.cast(high, pa.int64()),
                      "l": pc.cast(pc.invert(high), pa.int64())}) \
            .group_by("late").aggregate([("h", "sum"), ("l", "sum")])
        return g.rename_columns(["late", "ph", "pl"])

    agg = drop_empty_blocks(
        joined.map_batches(pivot_partial, batch_format="pyarrow")) \
        .groupby("late") \
        .aggregate(Sum("ph", alias_name="high_count"),
                   Sum("pl", alias_name="low_count"))
    pdf = agg.to_pandas()
    return pdf[["late", "high_count", "low_count"]] \
        .sort_values("late").reset_index(drop=True)


SQL_Q12_LATE_SHIPMENTS = """
SELECT (l_shipdate > o_orderdate + INTERVAL 90 DAY) AS late,
       sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END)::BIGINT AS high_count,
       sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 0 ELSE 1 END)::BIGINT AS low_count
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY late ORDER BY late
"""


def q16_supplier_counts(sf_dir: str, bal_cut: float = 500.0):
    """TPC-H Q16 shape (COUNT DISTINCT suppliers per part
    brand/type/size, excluding a supplier blocklist; lineitem plays
    partsupp — the fixture has no partsupp table, and the blocklist
    predicate is ``s_acctbal < bal_cut`` in place of the comment
    LIKE). Scale-first COUNT DISTINCT: map-side per-batch pair dedup
    → ONE range shuffle attaches part attrs → a second range shuffle
    dedups (brand, type, size, suppkey) via ``sorted_first_per_group``
    → per-batch count partials into a ≤ |brand×type×size| hash
    groupby. The blocklist broadcasts once (it is a filtered dim —
    tiny by construction); no distinct ever materializes driver-side."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from zhtml_ray.stages.sortagg import (sorted_first_per_group,
                                          sorted_lookup_join)
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_acctbal"])
    bad = supp.filter(pc.less(supp["s_acctbal"], bal_cut))["s_suppkey"] \
        .combine_chunks()
    bad_ref = ray.put(bad)

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_partkey", "l_suppkey"])

    def pair_partial(b: pa.Table) -> pa.Table:
        hit = pc.is_in(b["l_suppkey"], value_set=ray.get(bad_ref))
        t = b.filter(pc.invert(pc.fill_null(hit, False)))
        g = t.group_by(["l_partkey", "l_suppkey"]).aggregate([])
        return g.rename_columns(["p_partkey", "l_suppkey"])

    pairs = drop_empty_blocks(
        line.map_batches(pair_partial, batch_format="pyarrow"))

    part = rd.read_parquet(f"{sf_dir}/part.parquet",
                           columns=["p_partkey", "p_brand", "p_type",
                                    "p_size"])
    # shuffle 1: attach part attributes to the (part, supplier) pairs
    with_p = compact_blocks(sorted_lookup_join(
        pairs, part, "p_partkey", ["p_brand", "p_type", "p_size"],
        how="inner"))

    # shuffle 2: global dedup of (brand, type, size, suppkey)
    distinct = sorted_first_per_group(
        with_p.drop_columns(["p_partkey"]),
        ["p_brand", "p_type", "p_size", "l_suppkey"])

    def cnt_partial(b: pa.Table) -> pa.Table:
        g = b.group_by(["p_brand", "p_type", "p_size"]) \
            .aggregate([("l_suppkey", "count")])
        return g.rename_columns(["p_brand", "p_type", "p_size",
                                 "part_c"])

    agg = drop_empty_blocks(
        distinct.map_batches(cnt_partial, batch_format="pyarrow")) \
        .groupby(["p_brand", "p_type", "p_size"]) \
        .aggregate(Sum("part_c", alias_name="supplier_cnt"))
    pdf = agg.to_pandas()
    return pdf[["p_brand", "p_type", "p_size", "supplier_cnt"]] \
        .sort_values(["supplier_cnt", "p_brand", "p_type", "p_size"],
                     ascending=[False, True, True, True]) \
        .reset_index(drop=True)


SQL_Q16_SUPPLIER_COUNTS = """
SELECT p_brand, p_type, p_size,
       count(DISTINCT l_suppkey) AS supplier_cnt
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE l_suppkey NOT IN (SELECT s_suppkey FROM supplier
                        WHERE s_acctbal < 500.0)
GROUP BY p_brand, p_type, p_size
ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
"""


def q2_min_cost_supplier(sf_dir: str, region: str = "ASIA",
                         ptype: str = "PROMO", max_size: int = 10,
                         k: int = 100):
    """TPC-H Q2 shape (min-cost supplier per part — the correlated-MIN
    subquery; lineitem plays partsupp and s_acctbal plays supply
    cost). The part predicate broadcasts as a sorted-key bitmap, the
    ≤25-row nation⋈region dim broadcasts for the region filter;
    per-batch (supplier, part) dedup → ONE range shuffle attaches
    supplier attrs → the correlated min is ONE
    ``sorted_first_per_group`` on partkey with (acctbal, suppkey)
    ties — the SQL mirrors that exact winner rule with a QUALIFY
    row_number, so equal-cost ties resolve identically."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from zhtml_ray.stages.sortagg import (sorted_first_per_group,
                                          sorted_lookup_join)
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    reg = pq.read_table(f"{sf_dir}/region.parquet")
    dim = nation.join(reg, keys="n_regionkey", right_keys="r_regionkey")
    dim = dim.filter(pc.equal(dim["r_name"], region))
    region_keys = pa.array(sorted(
        pc.cast(dim["n_nationkey"], pa.int32()).to_pylist()), pa.int32())
    name_of = dict(zip(dim["n_nationkey"].to_pylist(),
                       dim["n_name"].to_pylist()))

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_type", "p_size"])
    keys = np.asarray(part["p_partkey"].to_pylist(), np.int64)
    order = np.argsort(keys)
    ok_part = (np.asarray(pc.equal(part["p_type"], ptype).to_pylist(),
                          bool)
               & (np.asarray(part["p_size"].to_pylist(), np.int32)
                  <= max_size))[order]
    part_ref = ray.put((keys[order], ok_part))

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_partkey", "l_suppkey"])

    def pair_partial(b: pa.Table) -> pa.Table:
        kk, okp = ray.get(part_ref)
        pk = b["l_partkey"].to_numpy(zero_copy_only=False)
        idx, found = _bcast_lookup(kk, pk)
        t = b.filter(pa.array(okp[idx] & found))
        g = t.group_by(["l_partkey", "l_suppkey"]).aggregate([])
        return g.rename_columns(["p_partkey", "s_suppkey"])

    pairs = drop_empty_blocks(
        line.map_batches(pair_partial, batch_format="pyarrow"))

    supp = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_name", "s_acctbal",
                                    "s_nationkey"])
    with_s = compact_blocks(sorted_lookup_join(
        pairs, supp, "s_suppkey",
        ["s_name", "s_acctbal", "s_nationkey"], how="inner"))

    def region_prune(b: pa.Table) -> pa.Table:
        keep = pc.is_in(pc.cast(b["s_nationkey"], pa.int32()),
                        value_set=region_keys)
        return b.filter(pc.fill_null(keep, False))

    pruned = compact_blocks(drop_empty_blocks(
        with_s.map_batches(region_prune, batch_format="pyarrow")))

    best = sorted_first_per_group(pruned, ["p_partkey"],
                                  tie_cols=["s_acctbal", "s_suppkey"])
    top = compact_blocks(best).sort(["s_acctbal", "p_partkey"],
                                    descending=[True, False]).limit(k)
    pdf = top.to_pandas()
    if pdf.empty:
        import pandas as pd
        return pd.DataFrame({"s_acctbal": pd.Series([], dtype="float64"),
                             "s_name": pd.Series([], dtype=object),
                             "n_name": pd.Series([], dtype=object),
                             "p_partkey": pd.Series([], dtype="int64")})
    pdf["n_name"] = pdf["s_nationkey"].map(name_of)
    return pdf[["s_acctbal", "s_name", "n_name", "p_partkey"]] \
        .sort_values(["s_acctbal", "p_partkey"],
                     ascending=[False, True]).reset_index(drop=True)


SQL_Q2_MIN_COST_SUPPLIER = """
WITH cand AS (
  SELECT DISTINCT p.p_partkey, s.s_suppkey, s.s_acctbal, s.s_name,
                  n.n_name
  FROM lineitem l
  JOIN part p     ON p.p_partkey = l.l_partkey
  JOIN supplier s ON s.s_suppkey = l.l_suppkey
  JOIN nation n   ON s.s_nationkey = n.n_nationkey
  JOIN region r   ON n.n_regionkey = r.r_regionkey
  WHERE p.p_size <= 10 AND p.p_type = 'PROMO' AND r.r_name = 'ASIA'
)
SELECT s_acctbal, s_name, n_name, p_partkey
FROM cand
QUALIFY row_number() OVER (PARTITION BY p_partkey
                           ORDER BY s_acctbal, s_suppkey) = 1
ORDER BY s_acctbal DESC, p_partkey
LIMIT 100
"""


def q6_forecast_revenue(sf_dir: str, lo: str = "1996-01-01",
                        hi: str = "1997-01-01"):
    """TPC-H Q6 shape (forecast-revenue-change scalar: one filtered
    sum, the canonical zero-shuffle aggregate). One pure-map pass
    emits a single partial per batch; ``Dataset.aggregate`` folds
    ≤ #blocks rows. Revenue is an EXACT int64 unit sum
    (cents × discount_cents, r4 — see _rev_units): no float pin."""
    import datetime as _dt
    import math

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    lo_ts = _dt.datetime.fromisoformat(lo)
    hi_ts = _dt.datetime.fromisoformat(hi)
    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_shipdate", "l_discount",
                                  "l_quantity", "l_extendedprice"])

    def partial(b: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(pc.greater_equal(b["l_shipdate"], pa.scalar(lo_ts)),
                    pc.less(b["l_shipdate"], pa.scalar(hi_ts))),
            pc.and_(
                pc.and_(pc.greater_equal(b["l_discount"],
                                         pa.scalar(0.05)),
                        pc.less_equal(b["l_discount"],
                                      pa.scalar(0.07))),
                pc.less(b["l_quantity"], pa.scalar(24.0))))
        t = b.filter(keep)
        # extcents × disc_cents: exact 1e-4-dollar int64 units
        rev = pc.multiply(_money_cents(t["l_extendedprice"]),
                          _money_cents(t["l_discount"]))
        return pa.table({"r": pa.array(
            [int(pc.sum(rev).as_py() or 0)], pa.int64())})

    got = ds.map_batches(partial, batch_format="pyarrow") \
        .aggregate(Sum("r", alias_name="r"))
    import pandas as pd
    return pd.DataFrame({"revenue": [int(got["r"] or 0) / 1e4]})


SQL_Q6_FORECAST_REVENUE = """
SELECT sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * CAST(round(l_discount * 100) AS BIGINT)) / 1e4 AS revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate <  TIMESTAMP '1997-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07
  AND l_quantity < 24.0
"""


def q9_nation_margin(sf_dir: str):
    """TPC-H Q9 shape (profit by supplier nation and year; the fixture
    has no partsupp, so cost = p_retailprice × quantity). The part
    cost table broadcasts once as sorted partkey-aligned prices (q14
    pattern); margin and year compute map-side; ONE range shuffle
    attaches the supplier nation; per-(nation, year) partials combine
    into a ≤ nations×years final groupby. Margin is EXACT int64
    1e-4-dollar units on both sides (r4; the r3 2-dp float pin flipped
    a last digit on the driver — see _rev_units)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from zhtml_ray.stages.sortagg import sorted_lookup_join
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    name_of = dict(zip(nation["n_nationkey"].to_pylist(),
                       nation["n_name"].to_pylist()))

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_retailprice"])
    keys = np.asarray(part["p_partkey"].to_pylist(), np.int64)
    order = np.argsort(keys)
    # broadcast EXACT retail cents (2-dp money) — margin becomes pure
    # int64 arithmetic, bit-identical to the oracle with no float pin
    price_c = np.asarray(_money_cents(part["p_retailprice"]).to_pylist(),
                         np.int64)[order]
    lookup_ref = ray.put((keys[order], price_c))

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_partkey", "l_suppkey",
                                    "l_quantity", "l_extendedprice",
                                    "l_discount", "l_shipdate"])

    def margin_prep(b: pa.Table) -> pa.Table:
        k, pr_c = ray.get(lookup_ref)
        pk = b["l_partkey"].to_numpy(zero_copy_only=False)
        qty = np.rint(b["l_quantity"].to_numpy(zero_copy_only=False)) \
            .astype(np.int64)  # fixture quantities are integer-valued
        # cost in 1e-4-dollar units: retail_cents × qty × 100
        idx, found = _bcast_lookup(k, pk)
        cost_u = pr_c[idx] * qty * 100
        rev_u = _rev_units(b["l_extendedprice"],
                           b["l_discount"]).to_numpy()
        return pa.table({
            "s_suppkey": b["l_suppkey"],
            "margin": pa.array(rev_u - cost_u),
            "o_year": pc.cast(pc.year(b["l_shipdate"]), pa.int64())}) \
            .filter(pa.array(found))  # inner-join: unmatched drop

    prepped = line.map_batches(margin_prep, batch_format="pyarrow")
    with_n = compact_blocks(sorted_lookup_join(
        prepped, rd.read_parquet(f"{sf_dir}/supplier.parquet",
                                 columns=["s_suppkey", "s_nationkey"]),
        "s_suppkey", ["s_nationkey"], how="inner"))

    def partial(b: pa.Table) -> pa.Table:
        g = pa.table({"n": pc.cast(b["s_nationkey"], pa.int32()),
                      "o_year": b["o_year"], "m": b["margin"]}) \
            .group_by(["n", "o_year"]).aggregate([("m", "sum")])
        return g.rename_columns(["n", "o_year", "pm"])

    agg = drop_empty_blocks(
        with_n.map_batches(partial, batch_format="pyarrow")) \
        .groupby(["n", "o_year"]) \
        .aggregate(Sum("pm", alias_name="margin"))
    pdf = agg.to_pandas()
    pdf["n_name"] = pdf["n"].map(name_of)
    pdf["margin"] = pdf["margin"] / 1e4
    return pdf[["n_name", "o_year", "margin"]] \
        .sort_values(["n_name", "o_year"],
                     ascending=[True, False]).reset_index(drop=True)


SQL_Q9_NATION_MARGIN = f"""
SELECT n_name, o_year,
       sum(amount) / 1e4 AS margin
FROM (SELECT n_name, EXTRACT(year FROM l_shipdate) AS o_year,
             {_REV_U_SQL}
                 - CAST(round(p_retailprice * 100) AS BIGINT)
                   * CAST(round(l_quantity) AS BIGINT) * 100 AS amount
      FROM lineitem
      JOIN part     ON p_partkey = l_partkey
      JOIN supplier ON l_suppkey = s_suppkey
      JOIN nation   ON s_nationkey = n_nationkey) t
GROUP BY n_name, o_year
ORDER BY n_name, o_year DESC
"""


def q8_market_share(sf_dir: str, region: str = "ASIA",
                    bloc=("NATION_1", "NATION_2"),
                    ptype: str = "PROMO",
                    lo: str = "1996-01-01", hi: str = "1998-01-01"):
    """TPC-H Q8 shape (a supplier bloc's market share by year among
    one region's customers for one part type — a ratio of two
    aggregates per group). The q5/q7 spine: promo-part bitmap and
    nation/region dims broadcast; orders⋈customer (shuffle 1) carries
    the region filter; lineitem⋈that (shuffle 2) then ⋈supplier
    (shuffle 3). Numerator (bloc suppliers) and denominator sums are
    BOTH exact int64 1e-4-dollar unit sums (r4, see _rev_units), so
    the share is one int/int division — the identical IEEE double on
    both sides with no pin at all."""
    import datetime as _dt

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from zhtml_ray.stages.sortagg import sorted_lookup_join
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    reg = pq.read_table(f"{sf_dir}/region.parquet")
    dim = nation.join(reg, keys="n_regionkey", right_keys="r_regionkey")
    in_region = dim.filter(pc.equal(dim["r_name"], region))
    region_keys = pa.array(sorted(
        pc.cast(in_region["n_nationkey"], pa.int32()).to_pylist()),
        pa.int32())
    key_of = dict(zip(nation["n_name"].to_pylist(),
                      nation["n_nationkey"].to_pylist()))
    bloc_keys = pa.array(sorted(key_of[n] for n in bloc), pa.int32())

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_type"])
    keys = np.asarray(part["p_partkey"].to_pylist(), np.int64)
    order = np.argsort(keys)
    promo = np.asarray(pc.equal(part["p_type"], ptype).to_pylist(),
                       bool)[order]
    part_ref = ray.put((keys[order], promo))

    lo_ts = _dt.datetime.fromisoformat(lo)
    hi_ts = _dt.datetime.fromisoformat(hi)

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey",
                                      "o_orderdate"])

    def o_prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(b["o_orderdate"],
                                        pa.scalar(lo_ts)),
                       pc.less(b["o_orderdate"], pa.scalar(hi_ts)))
        t = b.filter(keep)
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "c_custkey": t["o_custkey"],
                         "o_year": pc.cast(pc.year(t["o_orderdate"]),
                                           pa.int64())})

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_nationkey"])
    o_nat = compact_blocks(sorted_lookup_join(
        drop_empty_blocks(orders.map_batches(o_prep,
                                             batch_format="pyarrow")),
        cust, "c_custkey", ["c_nationkey"], how="inner"))

    def region_prune(b: pa.Table) -> pa.Table:
        keep = pc.is_in(pc.cast(b["c_nationkey"], pa.int32()),
                        value_set=region_keys)
        return b.filter(pc.fill_null(keep, False)) \
            .select(["o_orderkey", "o_year"])

    o_f = compact_blocks(drop_empty_blocks(
        o_nat.map_batches(region_prune, batch_format="pyarrow")))

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_partkey",
                                    "l_suppkey", "l_extendedprice",
                                    "l_discount"])

    def l_prep(b: pa.Table) -> pa.Table:
        k, isp = ray.get(part_ref)
        pk = b["l_partkey"].to_numpy(zero_copy_only=False)
        idx, found = _bcast_lookup(k, pk)
        t = b.filter(pa.array(isp[idx] & found))
        rev = _rev_units(t["l_extendedprice"], t["l_discount"])
        return pa.table({"o_orderkey": t["l_orderkey"],
                         "s_suppkey": t["l_suppkey"], "rev": rev})

    li = compact_blocks(sorted_lookup_join(
        drop_empty_blocks(line.map_batches(l_prep,
                                           batch_format="pyarrow")),
        o_f, "o_orderkey", ["o_year"], how="inner"))

    supp = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_nationkey"])
    with_s = sorted_lookup_join(li, supp, "s_suppkey",
                                ["s_nationkey"], how="inner")

    def partial(b: pa.Table) -> pa.Table:
        in_bloc = pc.is_in(pc.cast(b["s_nationkey"], pa.int32()),
                           value_set=bloc_keys)
        bloc_rev = pc.if_else(pc.fill_null(in_bloc, False), b["rev"],
                              pa.scalar(0, pa.int64()))
        g = pa.table({"o_year": b["o_year"], "num": bloc_rev,
                      "den": b["rev"]}) \
            .group_by("o_year").aggregate([("num", "sum"),
                                           ("den", "sum")])
        return g.rename_columns(["o_year", "pn", "pd"])

    agg = drop_empty_blocks(
        with_s.map_batches(partial, batch_format="pyarrow")) \
        .groupby("o_year").aggregate(Sum("pn", alias_name="num"),
                                     Sum("pd", alias_name="den"))
    pdf = agg.to_pandas()
    if pdf.empty:
        import pandas as pd
        return pd.DataFrame({"o_year": pd.Series([], dtype="int64"),
                             "mkt_share": pd.Series([], dtype="float64")})
    # exact int-unit sums: the share is a single int64/int64 division,
    # identical to the oracle's CAST(...)/CAST(...) double division
    pdf["mkt_share"] = pdf["num"].astype("float64") / \
        pdf["den"].astype("float64")
    return pdf[["o_year", "mkt_share"]].sort_values("o_year") \
        .reset_index(drop=True)


SQL_Q8_MARKET_SHARE = f"""
SELECT o_year,
       CAST(sum(CASE WHEN bloc THEN volume ELSE 0 END) AS DOUBLE)
       / CAST(sum(volume) AS DOUBLE) AS mkt_share
FROM (SELECT EXTRACT(year FROM o_orderdate) AS o_year,
             {_REV_U_SQL} AS volume,
             ns.n_name IN ('NATION_1', 'NATION_2') AS bloc
      FROM lineitem
      JOIN part     ON p_partkey = l_partkey
      JOIN supplier ON l_suppkey = s_suppkey
      JOIN orders   ON l_orderkey = o_orderkey
      JOIN customer ON o_custkey = c_custkey
      JOIN nation nc ON c_nationkey = nc.n_nationkey
      JOIN region   ON nc.n_regionkey = r_regionkey
      JOIN nation ns ON s_nationkey = ns.n_nationkey
      WHERE r_name = 'ASIA' AND p_type = 'PROMO'
        AND o_orderdate >= TIMESTAMP '1996-01-01'
        AND o_orderdate <  TIMESTAMP '1998-01-01') t
GROUP BY o_year ORDER BY o_year
"""


def q15_top_supplier(sf_dir: str, lo: str = "1996-01-01",
                     hi: str = "1996-04-01"):
    """TPC-H Q15 shape (the top-revenue supplier(s) of a quarter —
    aggregate, then filter equal to the aggregate's MAX, ties kept).
    Per-supplier revenue: map-side partials → ONE
    ``sorted_sum_per_group`` shuffle → exact int64 1e-4-dollar units
    map-side (r4, see _rev_units). The global
    max reduces via ``Dataset.aggregate(Max)`` (never a driver scan);
    the equality filter is a pure map over the pinned values, so ties
    survive exactly as in SQL. Name attach = one final range shuffle."""
    import datetime as _dt

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Max

    from zhtml_ray.stages.sortagg import (sorted_lookup_join,
                                          sorted_sum_per_group)
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    lo_ts = _dt.datetime.fromisoformat(lo)
    hi_ts = _dt.datetime.fromisoformat(hi)
    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_suppkey", "l_extendedprice",
                                    "l_discount", "l_shipdate"])

    def partial(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(b["l_shipdate"],
                                        pa.scalar(lo_ts)),
                       pc.less(b["l_shipdate"], pa.scalar(hi_ts)))
        t = b.filter(keep)
        rev = _rev_units(t["l_extendedprice"], t["l_discount"])
        g = pa.table({"s_suppkey": t["l_suppkey"], "rev": rev}) \
            .group_by("s_suppkey").aggregate([("rev", "sum")])
        return g.rename_columns(["s_suppkey", "rev"])

    per_supp = sorted_sum_per_group(
        drop_empty_blocks(
            line.map_batches(partial, batch_format="pyarrow")),
        ["s_suppkey"], ["rev"])

    def pin(b: pa.Table) -> pa.Table:
        # exact int-unit sum → dollars; the max-equality filter then
        # compares identical doubles on both sides
        r = pc.divide(pc.cast(b["rev"], pa.float64()), pa.scalar(1e4))
        return pa.table({"s_suppkey": b["s_suppkey"], "total_rev": r})

    pinned = compact_blocks(
        per_supp.map_batches(pin, batch_format="pyarrow")).materialize()
    best = (pinned.aggregate(Max("total_rev", alias_name="m"))["m"]
            if pinned.count() else None)
    if best is None:  # empty window: typed empty result
        import pandas as pd
        return pd.DataFrame({"s_suppkey": pd.Series([], dtype="int64"),
                             "s_name": pd.Series([], dtype=object),
                             "total_rev": pd.Series([], dtype="float64")})

    def is_best(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b["total_rev"], pa.scalar(best)))

    top = drop_empty_blocks(
        pinned.map_batches(is_best, batch_format="pyarrow"))
    supp = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_name"])
    named = sorted_lookup_join(top, supp, "s_suppkey", ["s_name"],
                               how="inner")
    pdf = named.to_pandas()
    return pdf[["s_suppkey", "s_name", "total_rev"]] \
        .sort_values("s_suppkey").reset_index(drop=True)


SQL_Q15_TOP_SUPPLIER = f"""
WITH r AS (
  SELECT l_suppkey AS s_suppkey,
         sum({_REV_U_SQL}) / 1e4 AS total_rev
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate <  TIMESTAMP '1996-04-01'
  GROUP BY l_suppkey)
SELECT s_suppkey, s_name, total_rev
FROM r JOIN supplier USING (s_suppkey)
WHERE total_rev = (SELECT max(total_rev) FROM r)
ORDER BY s_suppkey
"""


def q17_small_quantity_revenue(sf_dir: str, frac: float = 0.5):
    """TPC-H Q17 shape (revenue from orders far below a part's
    typical quantity — the correlated per-group average). Two passes
    over lineitem: (1) per-part (sum_qty, count) via ONE
    ``sorted_sum_per_group``, average derived from the 2-dp-PINNED
    sum (a no-op on exact integer qty sums, kept for lockstep) so
    both engines compare against the identical double;
    (2) the filter pass re-joins the per-part threshold by one range
    shuffle and emits one partial revenue row per batch. Output is
    the global sum in THOUSANDS from EXACT int64 cents (r4, see
    _rev_units) — one division, identical on both sides."""
    import math

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    from zhtml_ray.stages.sortagg import (sorted_lookup_join,
                                          sorted_sum_per_group)
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_partkey", "l_quantity",
                                    "l_extendedprice"])

    def mom_partial(b: pa.Table) -> pa.Table:
        g = pa.table({"l_partkey": b["l_partkey"],
                      "q": b["l_quantity"],
                      "n": pa.array([1] * b.num_rows, pa.int64())}) \
            .group_by("l_partkey").aggregate([("q", "sum"),
                                              ("n", "sum")])
        return g.rename_columns(["l_partkey", "q", "n"])

    moments = sorted_sum_per_group(
        drop_empty_blocks(
            line.map_batches(mom_partial, batch_format="pyarrow")),
        ["l_partkey"], ["q", "n"])

    def thresh(b: pa.Table) -> pa.Table:
        qp = pc.divide(pc.floor(pc.add(pc.multiply(b["q"],
                                                   pa.scalar(1e2)),
                                       pa.scalar(0.5))), pa.scalar(1e2))
        avg = pc.divide(qp, pc.cast(b["n"], pa.float64()))
        return pa.table({"l_partkey": b["l_partkey"],
                         "cut": pc.multiply(avg, pa.scalar(frac))})

    cuts = compact_blocks(
        moments.map_batches(thresh, batch_format="pyarrow"))

    joined = sorted_lookup_join(line, cuts, "l_partkey", ["cut"],
                                how="inner")

    def rev_partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.less(b["l_quantity"], b["cut"]))
        s = pc.sum(_money_cents(t["l_extendedprice"])).as_py() or 0
        return pa.table({"r": pa.array([int(s)], pa.int64()),
                         "n": pa.array([t.num_rows], pa.int64())})

    got = joined.map_batches(rev_partial, batch_format="pyarrow") \
        .aggregate(Sum("r", alias_name="r"), Sum("n", alias_name="n"))
    # exact cents → thousands of dollars: one division, both sides
    rev_k = int(got["r"] or 0) / 1e5
    import pandas as pd
    return pd.DataFrame({"n_small": [int(got["n"] or 0)],
                         "revenue_k": [rev_k]})


SQL_Q17_SMALL_QUANTITY_REVENUE = """
WITH a AS (
  SELECT l_partkey,
         ((floor(sum(l_quantity) * 1e2 + 0.5) / 1e2) / count(*)) * 0.5
             AS cut
  FROM lineitem GROUP BY l_partkey)
SELECT count(*)::BIGINT AS n_small,
       sum(CAST(round(l_extendedprice * 100) AS BIGINT)) / 1e5
           AS revenue_k
FROM lineitem JOIN a USING (l_partkey)
WHERE l_quantity < cut
"""


def q20_promo_suppliers(sf_dir: str, ptype: str = "PROMO",
                        qty: float = 100.0):
    """TPC-H Q20 shape (suppliers with excess stock of promo parts:
    nested IN over a grouped HAVING; lineitem plays partsupp). The
    promo-part set broadcasts as a sorted-key bitmap (q14 pattern);
    per-(supplier, part) quantity sums run as ONE
    ``sorted_sum_per_group`` range shuffle; qualifying suppliers dedup
    map-side + one tiny grouped-first; names attach via a final range
    shuffle against the supplier table (too big to broadcast at
    100 TB). qty sums integers stored as doubles — exact HAVING
    boundary, no pin."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from zhtml_ray.stages.sortagg import (sorted_first_per_group,
                                          sorted_lookup_join,
                                          sorted_sum_per_group)
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_type"])
    keys = np.asarray(part["p_partkey"].to_pylist(), np.int64)
    promo = np.asarray(pc.equal(part["p_type"], ptype).to_pylist(), bool)
    order = np.argsort(keys)
    lookup_ref = ray.put((keys[order], promo[order]))

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_partkey", "l_suppkey",
                                    "l_quantity"])

    def promo_partial(b: pa.Table) -> pa.Table:
        k, isp = ray.get(lookup_ref)
        pk = b["l_partkey"].to_numpy(zero_copy_only=False)
        idx, found = _bcast_lookup(k, pk)
        t = b.filter(pa.array(isp[idx] & found))
        g = pa.table({"l_suppkey": t["l_suppkey"],
                      "l_partkey": t["l_partkey"],
                      "qty": t["l_quantity"]}) \
            .group_by(["l_suppkey", "l_partkey"]) \
            .aggregate([("qty", "sum")])
        return g.rename_columns(["l_suppkey", "l_partkey", "qty"])

    sums = sorted_sum_per_group(
        drop_empty_blocks(
            line.map_batches(promo_partial, batch_format="pyarrow")),
        ["l_suppkey", "l_partkey"], ["qty"])

    def qualify(b: pa.Table) -> pa.Table:
        t = b.filter(pc.greater(b["qty"], pa.scalar(qty)))
        return pa.table({"s_suppkey": pc.unique(t["l_suppkey"])})

    distinct = sorted_first_per_group(
        compact_blocks(drop_empty_blocks(
            sums.map_batches(qualify, batch_format="pyarrow"))),
        ["s_suppkey"])

    supp = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_name"])
    named = sorted_lookup_join(distinct, supp, "s_suppkey",
                               ["s_name"], how="inner")
    pdf = named.to_pandas()
    return pdf[["s_suppkey", "s_name"]].sort_values("s_suppkey") \
        .reset_index(drop=True)


SQL_Q20_PROMO_SUPPLIERS = """
SELECT s_suppkey, s_name FROM supplier
WHERE s_suppkey IN (
  SELECT l_suppkey FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE p_type = 'PROMO'
  GROUP BY l_suppkey, l_partkey
  HAVING sum(l_quantity) > 100.0)
ORDER BY s_suppkey
"""


def q21_single_blame(sf_dir: str, days: int = 60, k: int = 20):
    """TPC-H Q21 shape (suppliers who kept orders waiting: multi-
    supplier orders where EXACTLY ONE supplier shipped late — the
    EXISTS + NOT EXISTS pair — counted per blamed supplier; lateness
    is ship > order date + ``days`` since the fixture has no
    commit/receipt dates). Execution:

      1. ONE range shuffle attaches o_orderdate to lineitem;
      2. per-batch (order, supplier) late-flag partials;
      3. ``sorted_bucket_apply`` on o_orderkey: the per-order
         blamed-supplier rule runs VECTORIZED inside each block
         (np.reduceat over (order, supplier) sub-runs), block-edge
         orders resolve whole in its bounded regroup pass;
      4. blamed counts per supplier via ``sorted_sum_per_group`` +
         a final name-attach shuffle; only the top-k reaches the
         driver."""
    import datetime as _dt

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from zhtml_ray.stages.sortagg import (sorted_bucket_apply,
                                          sorted_lookup_join,
                                          sorted_sum_per_group)
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_suppkey",
                                    "l_shipdate"])
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderdate"])

    def l_prep(b: pa.Table) -> pa.Table:
        return b.rename_columns(["o_orderkey", "l_suppkey",
                                 "l_shipdate"])

    joined = compact_blocks(sorted_lookup_join(
        line.map_batches(l_prep, batch_format="pyarrow"), orders,
        "o_orderkey", ["o_orderdate"], how="inner"))

    cut = _dt.timedelta(days=days)

    def flag_partial(b: pa.Table) -> pa.Table:
        late = pc.cast(pc.greater(pc.subtract(b["l_shipdate"],
                                              b["o_orderdate"]),
                                  pa.scalar(cut)), pa.int8())
        g = pa.table({"o_orderkey": b["o_orderkey"],
                      "l_suppkey": b["l_suppkey"], "late": late}) \
            .group_by(["o_orderkey", "l_suppkey"]) \
            .aggregate([("late", "max")])
        return g.rename_columns(["o_orderkey", "l_suppkey", "late"])

    flags = drop_empty_blocks(
        joined.map_batches(flag_partial, batch_format="pyarrow"))

    empty = pa.table({"l_suppkey": pa.array([], pa.int64())})

    def blamed_of(b, starts, ends) -> pa.Table:
        """(order, supp, late) rows SORTED by (o, s) → the blamed
        supplier of every order with >= 2 suppliers, exactly one late
        (np.reduceat over the (order, supplier) sub-runs)."""
        o = b["o_orderkey"].to_numpy(zero_copy_only=False)
        s = b["l_suppkey"].to_numpy(zero_copy_only=False)
        late = b["late"].to_numpy(zero_copy_only=False)
        p_starts = np.flatnonzero(
            np.r_[True, (o[1:] != o[:-1]) | (s[1:] != s[:-1])])
        late_any = np.maximum.reduceat(late, p_starts)
        po = o[p_starts]
        o_starts = np.flatnonzero(np.r_[True, po[1:] != po[:-1]])
        ns = np.diff(np.r_[o_starts, len(p_starts)])
        q = (ns >= 2) & (np.add.reduceat(late_any, o_starts) == 1)
        blamed = p_starts[np.repeat(q, ns) & (late_any == 1)]
        return pa.table({"l_suppkey": pa.array(s[blamed], pa.int64())})

    blamed_ds = sorted_bucket_apply(
        flags, "o_orderkey", ["o_orderkey", "l_suppkey"],
        blamed_of, empty)

    def cnt_partial(b: pa.Table) -> pa.Table:
        g = pa.table({"s_suppkey": b["l_suppkey"]}) \
            .group_by("s_suppkey").aggregate([("s_suppkey", "count")])
        return g.rename_columns(["s_suppkey", "numwait"])

    counts = sorted_sum_per_group(
        compact_blocks(drop_empty_blocks(
            blamed_ds.map_batches(cnt_partial, batch_format="pyarrow"))),
        ["s_suppkey"], ["numwait"])

    supp = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_name"])
    named = sorted_lookup_join(counts, supp, "s_suppkey", ["s_name"],
                               how="inner")
    top = compact_blocks(named).sort(["numwait", "s_suppkey"],
                                     descending=[True, False]).limit(k)
    pdf = top.to_pandas()
    return pdf[["s_suppkey", "s_name", "numwait"]] \
        .sort_values(["numwait", "s_suppkey"],
                     ascending=[False, True]).reset_index(drop=True)


SQL_Q21_SINGLE_BLAME = """
WITH f AS (
  SELECT l_orderkey, l_suppkey,
         max(CASE WHEN l_shipdate > o_orderdate + INTERVAL 60 DAY
                  THEN 1 ELSE 0 END) AS late
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey
  GROUP BY l_orderkey, l_suppkey
), o AS (
  SELECT l_orderkey, count(*) AS ns, sum(late) AS nl
  FROM f GROUP BY l_orderkey
), blamed AS (
  SELECT f.l_suppkey FROM f JOIN o USING (l_orderkey)
  WHERE o.ns >= 2 AND o.nl = 1 AND f.late = 1
)
SELECT s_suppkey, s_name, count(*)::BIGINT AS numwait
FROM blamed JOIN supplier ON l_suppkey = s_suppkey
GROUP BY s_suppkey, s_name
ORDER BY numwait DESC, s_suppkey
LIMIT 20
"""


def q22_idle_balance(sf_dir: str,
                     segments=("AUTOMOBILE", "HOUSEHOLD"),
                     before: str = "1996-01-01"):
    """TPC-H Q22 shape (idle high-balance accounts: customers in given
    segments with above-average positive balance and NO order before
    a cutoff; the phone-prefix of real Q22 maps to ``c_mktsegment``
    and the NOT EXISTS is date-windowed because every fixture customer
    eventually orders). Three scale-safe pieces:

      * the scalar threshold reduces map-side to (sum, count) partials
        — the SUM is 2-dp-pinned on BOTH sides before the division so
        the derived average is the identical double (CLAUDE.md
        pinned-moment rule);
      * "has any order" is a distributed distinct
        (``sorted_first_per_group``) that ``key_join(how='anti')``
        removes — the ``q_cust_no_urgent_orders`` pattern;
      * the final per-segment count/sum is a ≤ |segments|-row reduce.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    from zhtml_ray.stages.sortagg import key_join, sorted_first_per_group
    from zhtml_ray.stages.util import drop_empty_blocks

    seg_arr = pa.array(list(segments))
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_acctbal",
                                    "c_mktsegment"])

    def thresh_partial(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_in(b["c_mktsegment"], value_set=seg_arr),
                       pc.greater(b["c_acctbal"], pa.scalar(0.0)))
        t = b.filter(keep)
        return pa.table({
            "s": pa.array([float(pc.sum(t["c_acctbal"]).as_py() or 0.0)]),
            "n": pa.array([t.num_rows], pa.int64())})

    mom = cust.map_batches(thresh_partial, batch_format="pyarrow") \
        .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n"))
    import math
    n_pos = int(mom["n"] or 0)
    # 2-dp is grid-safe for a c_acctbal (2-dp money) sum: boundaries
    # sit 0.005 off the 0.01 grid (r4 grid rule, see _rev_units)
    pinned_sum = math.floor((mom["s"] or 0.0) * 1e2 + 0.5) / 1e2
    threshold = (pinned_sum / n_pos) if n_pos else 0.0

    import datetime as _dt
    cut_ts = _dt.datetime.fromisoformat(before)
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_orderdate"])

    def o_keys(b: pa.Table) -> pa.Table:
        t = b.filter(pc.less(b["o_orderdate"], pa.scalar(cut_ts)))
        return pa.table({"c_custkey": pc.unique(t["o_custkey"])})

    has_order = sorted_first_per_group(
        orders.map_batches(o_keys, batch_format="pyarrow"),
        ["c_custkey"])

    def qualify(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_in(b["c_mktsegment"], value_set=seg_arr),
                       pc.greater(b["c_acctbal"],
                                  pa.scalar(threshold)))
        return b.filter(keep)

    qualified = drop_empty_blocks(
        cust.map_batches(qualify, batch_format="pyarrow"))

    idle = key_join(qualified, has_order, "c_custkey", how="anti")

    def seg_partial(b: pa.Table) -> pa.Table:
        g = pa.table({"c_mktsegment": b["c_mktsegment"],
                      "bal": b["c_acctbal"]}) \
            .group_by("c_mktsegment") \
            .aggregate([("bal", "sum"), ("bal", "count")])
        return g.rename_columns(["c_mktsegment", "part_s", "part_n"])

    agg = drop_empty_blocks(
        idle.map_batches(seg_partial, batch_format="pyarrow")) \
        .groupby("c_mktsegment") \
        .aggregate(Sum("part_s", alias_name="s"),
                   Sum("part_n", alias_name="numcust"))
    pdf = agg.to_pandas()
    if pdf.empty:  # nothing idle at this scale: typed empty
        import pandas as pd
        return pd.DataFrame({
            "c_mktsegment": pd.Series([], dtype=object),
            "numcust": pd.Series([], dtype="int64"),
            "totacctbal": pd.Series([], dtype="float64")})
    pdf["totacctbal"] = np.floor(pdf["s"] * 1e2 + 0.5) / 1e2
    return pdf[["c_mktsegment", "numcust", "totacctbal"]] \
        .sort_values("c_mktsegment").reset_index(drop=True)


SQL_Q22_IDLE_BALANCE = """
SELECT c_mktsegment, count(*) AS numcust,
       floor(sum(c_acctbal) * 1e2 + 0.5) / 1e2 AS totacctbal
FROM customer
WHERE c_mktsegment IN ('AUTOMOBILE', 'HOUSEHOLD')
  AND c_acctbal > (SELECT (floor(sum(c_acctbal) * 1e2 + 0.5) / 1e2)
                          / count(*)
                   FROM customer
                   WHERE c_acctbal > 0.0
                     AND c_mktsegment IN ('AUTOMOBILE', 'HOUSEHOLD'))
  AND NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey
                  AND o_orderdate < TIMESTAMP '1996-01-01')
GROUP BY c_mktsegment
ORDER BY c_mktsegment
"""


def queries() -> dict[str, Callable[[str], Any]]:
    from zhtml_ray.pipelines import ops_queries
    out = {
        "extract": q_extract,
        "extract_error_histogram": q_extract_error_histogram,
        "links": q_links,
        "images": q_images,
        "node_table": q_node_table,
        "page_meta": q_page_meta,
        "table_cells": q_table_cells,
        "token_stats": q_token_stats,
        "q1_pricing_summary": q1_pricing_summary,
        "filter_revenue": q_filter_revenue,
        "cust_nation_region": q_cust_nation_region,
        "top_orders": q_top_orders,
        "top_docs_by_length": q_top_docs_by_length,
        "brand_revenue": q_brand_revenue,
        "big_discount_orders": q_big_discount_orders,
        "q3_shipping": q3_shipping,
        "top_orders_per_cust": q_top_orders_per_cust,
        "q13_order_counts": q13_order_counts,
        "cust_orders_full_outer": q_cust_orders_full_outer,
        "cust_no_urgent_orders": q_cust_no_urgent_orders,
        "q5_region_supplier_volume": q5_region_supplier_volume,
        "q14_promo_revenue": q14_promo_revenue,
        "q4_priority_exists": q4_priority_exists,
        "q7_nation_volume": q7_nation_volume,
        "q10_returned_items": q10_returned_items,
        "q11_important_parts": q11_important_parts,
        "q12_late_shipments": q12_late_shipments,
        "q16_supplier_counts": q16_supplier_counts,
        "q18_large_orders": q18_large_orders,
        "page_structure": q_page_structure,
        "link_spam_signals": q_link_spam_signals,
        "q2_min_cost_supplier": q2_min_cost_supplier,
        "q6_forecast_revenue": q6_forecast_revenue,
        "q8_market_share": q8_market_share,
        "q9_nation_margin": q9_nation_margin,
        "q15_top_supplier": q15_top_supplier,
        "q17_small_quantity_revenue": q17_small_quantity_revenue,
        "q20_promo_suppliers": q20_promo_suppliers,
        "q21_single_blame": q21_single_blame,
        "q19_disjunctive_revenue": q19_disjunctive_revenue,
        "q22_idle_balance": q22_idle_balance,
        "bloom_join_revenue": q_bloom_join_revenue,
        "link_pagerank": q_link_pagerank,
        "link_hits": q_link_hits,
        "anchor_terms": q_anchor_terms,
        "link_components": q_link_components,
        "link_degree_hist": q_link_degree_hist,
        "link_cocitation": q_link_cocitation,
        "link_triangles": q_link_triangles,
        "crawl_depth": q_crawl_depth,
    }
    out.update(ops_queries.queries())
    return out


def oracle_sql() -> dict[str, str]:
    from zhtml_ray.pipelines import ops_queries
    from zhtml_ray.pipelines.golden import golden_sql, pregenerate
    pregenerate()  # driver gate scale; no-op re-runs (cached)
    out = {
        # pinned serial-run goldens (north-star invariant, driver-visible)
        "extract": golden_sql("extract"),
        "extract_error_histogram": golden_sql("extract_error_histogram"),
        "links": golden_sql("links"),
        "images": golden_sql("images"),
        "node_table": golden_sql("node_table"),
        "page_meta": golden_sql("page_meta"),
        "table_cells": golden_sql("table_cells"),
        "token_stats": golden_sql("token_stats"),
        "q1_pricing_summary": SQL_Q1,
        "filter_revenue": SQL_FILTER_REVENUE,
        "cust_nation_region": SQL_CUST_NATION_REGION,
        "top_orders": SQL_TOP_ORDERS,
        "top_docs_by_length": SQL_TOP_DOCS_BY_LENGTH,
        "brand_revenue": SQL_BRAND_REVENUE,
        "big_discount_orders": SQL_BIG_DISCOUNT_ORDERS,
        "q3_shipping": SQL_Q3_SHIPPING,
        "top_orders_per_cust": SQL_TOP_ORDERS_PER_CUST,
        "q13_order_counts": SQL_Q13_ORDER_COUNTS,
        "cust_orders_full_outer": SQL_CUST_ORDERS_FULL_OUTER,
        "cust_no_urgent_orders": SQL_CUST_NO_URGENT_ORDERS,
        "q5_region_supplier_volume": SQL_Q5_REGION_SUPPLIER_VOLUME,
        "q14_promo_revenue": SQL_Q14_PROMO_REVENUE,
        "q4_priority_exists": SQL_Q4_PRIORITY_EXISTS,
        "q7_nation_volume": SQL_Q7_NATION_VOLUME,
        "q10_returned_items": SQL_Q10_RETURNED_ITEMS,
        "q11_important_parts": SQL_Q11_IMPORTANT_PARTS,
        "q12_late_shipments": SQL_Q12_LATE_SHIPMENTS,
        "q16_supplier_counts": SQL_Q16_SUPPLIER_COUNTS,
        "q18_large_orders": SQL_Q18_LARGE_ORDERS,
        "page_structure": _sql_page_structure(),
        "link_spam_signals": _sql_link_spam_signals(),
        "q2_min_cost_supplier": SQL_Q2_MIN_COST_SUPPLIER,
        "q6_forecast_revenue": SQL_Q6_FORECAST_REVENUE,
        "q8_market_share": SQL_Q8_MARKET_SHARE,
        "q9_nation_margin": SQL_Q9_NATION_MARGIN,
        "q15_top_supplier": SQL_Q15_TOP_SUPPLIER,
        "q17_small_quantity_revenue": SQL_Q17_SMALL_QUANTITY_REVENUE,
        "q20_promo_suppliers": SQL_Q20_PROMO_SUPPLIERS,
        "q21_single_blame": SQL_Q21_SINGLE_BLAME,
        "q19_disjunctive_revenue": SQL_Q19_DISJUNCTIVE_REVENUE,
        "q22_idle_balance": SQL_Q22_IDLE_BALANCE,
        "bloom_join_revenue": SQL_BLOOM_JOIN_REVENUE,
        "link_pagerank": _sql_link_pagerank(),
        "link_hits": _sql_link_hits(),
        "anchor_terms": _sql_anchor_terms(),
        "link_components": golden_sql("link_components"),
        "link_degree_hist": _sql_link_degree_hist(),
        "link_cocitation": _sql_link_cocitation(),
        "link_triangles": _sql_link_triangles(),
        "crawl_depth": _sql_crawl_depth(),
    }
    out.update(ops_queries.oracle_sql())
    return out

